"""One SHA-256 over the canonical Z certificate bytes of simplicial complexes.

Simplicial boundaries pivot on ±1, and consecutive pivots often differ in
sign, so these inputs take the unit-pivot paths of the Z eliminations
(the fraction-free complement splits and the Smith forms) that the
random corpus of ``test_golden_digest.py`` rarely reaches.  The corpus is
the 7-vertex torus, RP^2, the Klein bottle (both with torsion) and the
2-skeleton of the 7-simplex, each certified as the CLI does, plus every
``alpha_variants`` pair of each.  If this digest moves, some certificate
byte moved: find it with ``corpus_certificates`` before touching the pin.
"""

import hashlib
import random
from itertools import combinations

from eigenchain import ZZ
from eigenchain.certify import certify_homology_eigenvalue, decide_eigenvalue
from eigenchain.complexes import CHAIN, COCHAIN, convert_convention
from eigenchain.formats import canonical_dumps, certificate_to_payload
from eigenchain.randgen import alpha_variants
from eigenchain.simplicial import simplicial_to_chain

from test_golden_analysis import RP2, _klein_bottle

TORUS = [[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)] + [[i, (i + 2) % 7, (i + 3) % 7] for i in range(7)]

CORPUS = (
    ("torus", 7, TORUS),
    ("rp2", 6, RP2),
    ("klein", 9, _klein_bottle()),
    ("skeleton-7-2", 8, [list(f) for f in combinations(range(8), 3)]),
)

GOLDEN_SHA256 = "e5f8eea4aa6a69808024ff5ec9fc573d15793e5c336866b1e0305b1c8adfbb01"


def _bytes(cert) -> bytes:
    return canonical_dumps(certificate_to_payload(cert, CHAIN)).encode()


def corpus_certificates():
    """Yield ``(label, canonical certificate bytes)`` in a fixed order."""
    for name, vertices, facets in CORPUS:
        chain, _ = simplicial_to_chain(vertices, facets, ZZ)
        f = convert_convention(chain, COCHAIN)
        yield name, _bytes(certify_homology_eigenvalue(f))
        for tag, lam, alpha in alpha_variants(f, random.Random(f"variants-{name}")):
            yield f"{name}/{tag}", _bytes(decide_eigenvalue(f, lam, alpha))


def test_simplicial_certificate_bytes_match_the_golden_digest():
    digest = hashlib.sha256()
    for label, data in corpus_certificates():
        digest.update(label.encode() + b"\0" + data + b"\0")
    assert digest.hexdigest() == GOLDEN_SHA256
