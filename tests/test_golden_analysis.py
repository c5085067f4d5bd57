"""One SHA-256 over the canonical rendering of ``homology()`` and ``decompose()``.

``test_golden_digest.py`` pins certificate bytes; this pins the bases they
are built from: per degree the Betti number, torsion and representative
cycles, and every basis of the decomposition together with the restricted
differential and the block-coordinate inverse.  The corpus is the
certificate corpus plus simplicial RP^2 and the Klein bottle over Z, whose
torsion takes the representative fallback and makes ``decompose`` raise
``NotSaturated`` (its degree and factors are pinned too).
"""

import hashlib
import random

from eigenchain import GF, QQ, ZZ
from eigenchain.complexes import COCHAIN, convert_convention
from eigenchain.decompose import decompose, homology
from eigenchain.errors import NotSaturated
from eigenchain.formats import bundled_path, canonical_dumps, load_complex
from eigenchain.randgen import random_complex
from eigenchain.simplicial import simplicial_to_chain

CORPUS = (
    (QQ, range(10), 4, 4),
    (GF(2), range(10), 4, 4),
    (GF(5), range(10), 4, 4),
    (ZZ, range(10), 4, 4),
    (ZZ, (105, 129, 130), 3, 12),
)

RP2 = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def _klein_bottle():
    """A 3x3 grid glued straight along one side and with a flip along the other."""

    def v(i, j):
        if j == 3:
            i, j = -i, 0
        return (i % 3) * 3 + j

    facets = []
    for i in range(3):
        for j in range(3):
            facets.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            facets.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
    return facets


SIMPLICIAL = (("rp2", 6, RP2), ("klein", 9, _klein_bottle()))

GOLDEN_SHA256 = "1d14186a7b3dc11ab21a803f21a21210dbf4fb7ce7377ae7afcf690faeb15a3d"


def _homology_payload(f):
    return [
        {
            "degree": n,
            "betti": h.betti,
            "torsion": list(h.torsion),
            "representatives": h.representatives.vectors.render_rows(),
        }
        for n, h in sorted(homology(f).by_degree.items())
    ]


def _decompose_payload(f):
    try:
        dec = decompose(f)
    except NotSaturated as exc:
        return {"not_saturated": {"degree": exc.degree, "factors": list(exc.factors)}}
    return [
        {
            "degree": n,
            "incoming_image": dec[n].incoming_image.vectors.render_rows(),
            "complement": dec[n].complement.vectors.render_rows(),
            "complement_cycles": dec[n].complement_cycles.vectors.render_rows(),
            "complement_transversal": dec[n].complement_transversal.vectors.render_rows(),
            "restricted_diff": dec[n].restricted_diff.render_rows(),
            "to_block_coords": dec[n].to_block_coords.render_rows(),
            "cycles_in_ambient": dec[n].cycles_in_ambient.render_rows(),
            "transversal_in_ambient": dec[n].transversal_in_ambient.render_rows(),
        }
        for n in sorted(dec)
    ]


def corpus_complexes():
    """Yield ``(label, complex)`` in a fixed order."""
    yield "circle", load_complex(bundled_path("s1_complex.json")).complex
    for ring, seeds, max_len, max_rank in CORPUS:
        for seed in seeds:
            yield f"{ring}/{seed}", random_complex(ring, random.Random(seed), max_len=max_len, max_rank=max_rank)
    for name, vertices, facets in SIMPLICIAL:
        chain, _ = simplicial_to_chain(vertices, facets, ZZ)
        yield name, convert_convention(chain, COCHAIN)


def test_homology_and_decomposition_match_the_golden_digest():
    digest = hashlib.sha256()
    for label, f in corpus_complexes():
        payload = {"homology": _homology_payload(f), "decompose": _decompose_payload(f)}
        digest.update(label.encode() + b"\0" + canonical_dumps(payload).encode() + b"\0")
    assert digest.hexdigest() == GOLDEN_SHA256


def test_the_corpus_reaches_torsion_and_not_saturated():
    torsion = not_saturated = 0
    for _, f in corpus_complexes():
        torsion += bool(homology(f).torsion_by_degree())
        not_saturated += "not_saturated" in _decompose_payload(f)
    assert torsion >= 2 and not_saturated >= 2
