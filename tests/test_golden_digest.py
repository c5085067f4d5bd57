"""One SHA-256 over the canonical certificate bytes of a fixed corpus.

Witnesses and certificates must stay bit-identical across kernel changes
(the pivot rules fix every basis choice).  The corpus mixes seeded random
complexes over Q, Z, F2 and F5, every ``alpha_variants`` pair of each, and
the bundled circle.  If a change moves this digest, some certificate byte
moved: find it with ``corpus_certificates`` before touching the pin.

The bytes carry only the primary failure reason of a negative, so a
second digest pins every certificate's whole ``failure_reasons`` list
(kind, degree, factors) and its ``alpha_injective`` map over the same
corpus.

The small Q complexes give certificates whose only denominators are 2,
4, 7, 8 and 14, so a third digest pins the certificate bytes of wider Q
complexes, which carry 55 distinct denominators, coprime ones among
them.

A negative certificate holds neither lambda nor alpha, so a fourth
digest pins every ``alpha_variants`` pair of the random corpus itself:
its tag, its lambda ranks and the canonical bytes of its alpha.
"""

import hashlib
import random

from eigenchain import GF, QQ, ZZ
from eigenchain.certify import certify_homology_eigenvalue, decide_eigenvalue
from eigenchain.complexes import COCHAIN
from eigenchain.formats import (
    bundled_path,
    canonical_dumps,
    certificate_to_payload,
    graded_map_to_payload,
    load_complex,
)
from eigenchain.randgen import alpha_variants, random_complex

# (ring, seeds, max_len, max_rank): small complexes on every ring, plus
# wider Z complexes whose witnesses reach 11 to 49 decimal digits.
CORPUS = (
    (QQ, range(10), 4, 4),
    (GF(2), range(10), 4, 4),
    (GF(5), range(10), 4, 4),
    (ZZ, range(10), 4, 4),
    (ZZ, (105, 129, 130), 3, 12),
)
WIDE_Q = (QQ, range(16), 4, 8)

WIDE_Q_SHA256 = "fa8d44e8534bc4955e5a38fbe5ac3b93d99ea22c5d5ee6277198f84f8d57a906"

FAILURES_SHA256 = "4a33ffcfbe7486c9020a2ea34a58e9d01f3606efbbfef2a1df250e9eba4b8f61"
GOLDEN_SHA256 = "178367a41c94500a5fb1242e9cc64910b9d68cb9fc552ae5dc2d56abf985a4d0"
VARIANTS_SHA256 = "17ae5ea92a59cd15cfccf23cefb576377016691ab09f3f3d04204645cce90662"


def _bytes(cert, convention=COCHAIN) -> bytes:
    return canonical_dumps(certificate_to_payload(cert, convention)).encode()


def corpus():
    """Yield ``(label, certificate, convention)`` in a fixed order."""
    doc = load_complex(bundled_path("s1_complex.json"))
    yield "circle", certify_homology_eigenvalue(doc.complex), doc.convention
    for spec in CORPUS:
        yield from random_corpus(*spec)


def random_corpus(ring, seeds, max_len, max_rank):
    """Yield ``(label, certificate, convention)`` for each seeded complex and its alpha variants."""
    for seed in seeds:
        f = random_complex(ring, random.Random(seed), max_len=max_len, max_rank=max_rank)
        label = f"{ring}/{seed}"
        yield label, certify_homology_eigenvalue(f), COCHAIN
        for tag, lam, alpha in alpha_variants(f, random.Random(f"variants-{seed}")):
            yield f"{label}/{tag}", decide_eigenvalue(f, lam, alpha), COCHAIN


def variant_pairs():
    """Yield ``(label, bytes)`` for every alpha variant of the random corpus: ranks of lambda, then alpha."""
    for ring, seeds, max_len, max_rank in CORPUS:
        for seed in seeds:
            f = random_complex(ring, random.Random(seed), max_len=max_len, max_rank=max_rank)
            for tag, lam, alpha in alpha_variants(f, random.Random(f"variants-{seed}")):
                ranks = repr(sorted(lam.ranks.items())).encode()
                yield f"{ring}/{seed}/{tag}", ranks + b"\0" + canonical_dumps(graded_map_to_payload(alpha, COCHAIN)).encode()


def corpus_certificates():
    """Yield ``(label, canonical certificate bytes)`` in a fixed order."""
    for label, cert, convention in corpus():
        yield label, _bytes(cert, convention)


def _failures(cert) -> bytes:
    """Every failure reason and the injectivity of every block, in a fixed text form."""
    reasons = [(r.kind, r.degree, r.factors) for r in cert.failure_reasons]
    return repr((reasons, sorted(cert.alpha_injective.items()))).encode()


def test_certificate_bytes_match_the_golden_digest():
    digest = hashlib.sha256()
    for label, data in corpus_certificates():
        digest.update(label.encode() + b"\0" + data + b"\0")
    assert digest.hexdigest() == GOLDEN_SHA256


def test_wide_q_certificate_bytes_match_their_digest():
    digest = hashlib.sha256()
    for label, cert, convention in random_corpus(*WIDE_Q):
        digest.update(label.encode() + b"\0" + _bytes(cert, convention) + b"\0")
    assert digest.hexdigest() == WIDE_Q_SHA256


def test_full_failure_lists_match_their_digest():
    # The bytes carry only the first failure reason; this pins the rest.
    digest = hashlib.sha256()
    for label, cert, _ in corpus():
        digest.update(label.encode() + b"\0" + _failures(cert) + b"\0")
    assert digest.hexdigest() == FAILURES_SHA256


def test_alpha_variants_match_their_digest():
    # A negative certificate does not hold alpha; this pins the variants themselves.
    digest = hashlib.sha256()
    for label, data in variant_pairs():
        digest.update(label.encode() + b"\0" + data + b"\0")
    assert digest.hexdigest() == VARIANTS_SHA256
