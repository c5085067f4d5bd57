"""``certify_homology_eigenvalue`` and ``decide_eigenvalue`` write the same canonical-pair certificate.

Certify builds the canonical pair from F's own split and takes the pair's
hypothesis check from that construction (every degree injective, no
failure, eigenmap inverse I); decide re-derives the check from alpha's
factorizations.  Over every complex of the golden corpora that has a
canonical pair, the two certificates must be the same bytes.
"""

import random

import pytest

from eigenchain import GF, QQ, ZZ
from eigenchain.certify import certify_homology_eigenvalue, decide_eigenvalue
from eigenchain.complexes import CHAIN, COCHAIN, convert_convention
from eigenchain.decompose import canonical_alpha
from eigenchain.errors import TorsionHomology
from eigenchain.formats import canonical_dumps, certificate_to_payload
from eigenchain.randgen import random_complex
from eigenchain.simplicial import simplicial_to_chain

import test_golden_digest
import test_golden_simplicial


def golden_complexes():
    """``(label, complex, convention)`` for each complex the golden digests certify."""
    for ring, seeds, max_len, max_rank in test_golden_digest.CORPUS + (test_golden_digest.WIDE_Q,):
        for seed in seeds:
            f = random_complex(ring, random.Random(seed), max_len=max_len, max_rank=max_rank)
            yield f"{ring}/{seed}", f, COCHAIN
    for name, vertices, facets in test_golden_simplicial.CORPUS:
        chain, _ = simplicial_to_chain(vertices, facets, ZZ)
        yield name, convert_convention(chain, COCHAIN), CHAIN


def _bytes(cert, convention) -> str:
    return canonical_dumps(certificate_to_payload(cert, convention))


def test_the_corpora_cover_every_ring_and_the_simplicial_inputs():
    labels = [label for label, _, _ in golden_complexes()]
    for ring in (QQ, GF(2), GF(5), ZZ):
        assert any(label.startswith(f"{ring}/") for label in labels)
    assert {"torus", "rp2", "klein", "skeleton-7-2"} <= set(labels)


@pytest.mark.parametrize("f, convention", [pytest.param(f, c, id=label) for label, f, c in golden_complexes()])
def test_certify_writes_the_bytes_decide_writes_for_the_canonical_pair(f, convention):
    certified = certify_homology_eigenvalue(f)
    try:
        lam, alpha = canonical_alpha(f)
    except TorsionHomology:
        assert certified.failure_reason.kind == "Torsion"
        return
    decided = decide_eigenvalue(f, lam, alpha)
    assert certified.is_eigenvalue() and decided.is_eigenvalue()
    assert _bytes(certified, convention) == _bytes(decided, convention)
