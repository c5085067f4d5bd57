"""The four workloads: seeded inputs, the timed operations, and their checks.

``WORKLOADS[name](seed, workdir, tick)`` sets a workload up and returns the
list of ops making one pass; it calls ``tick()`` between its steps, so that
set-up can be timed in ref units.  Each op has a kind: ``main`` (the workload's headline operation) or
``aux`` (its second one).  ``run`` is the timed call and returns the output
the user would get; ``settle`` turns it into a hashable record outside the
timed region; ``check`` compares a record with an answer eigenchain did not
compute and returns OK, UNCHECKED (no independent answer exists) or an
error text.

eigenchain is driven only through its public functions, looked up on
their modules at call time, so a tracer that replaces them sees every call.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import corpus
import independent
from independent import Q

from eigenchain import certify, cli, complexes, formats, matrix, randgen, rings, simplicial

OK = "ok"
UNCHECKED = "unchecked"


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]
    settle: Callable[[object], object] = lambda raw: raw
    certificate: Callable[[object], bytes | None] = lambda out: None
    bytes_in: int = 0  # certificate bytes handed to eigenchain, for the formats layer


def _reverified(data: bytes) -> bool:
    return formats.reverify_certificate(json.loads(data))


def _homology_of(payload) -> dict[int, tuple[int, tuple]]:
    return {h["degree"]: (h["betti"], tuple(h["torsion"])) for h in payload["homology"]}


def _euler(hom: dict[int, tuple[int, tuple]]) -> int:
    return sum((-1) ** k * b for k, (b, _) in hom.items())


# -- simplicial-z ---------------------------------------------------------------

SIMPLICIAL_COPIES = 6


def _simplicial_families(rng: random.Random):
    return [
        ("sphere2", corpus.sphere(3)),
        ("sphere3", corpus.sphere(4)),
        ("skel1-d4", corpus.skeleton(4, 1)),
        ("skel1-d5", corpus.skeleton(5, 1)),
        ("skel2-d4", corpus.skeleton(4, 2)),
        ("skel2-d5", corpus.skeleton(5, 2)),
        ("torus", corpus.torus()),
        ("rp2", corpus.projective_plane()),
        ("klein", corpus.klein_bottle()),
        ("sub2-d6", corpus.facet_subset(rng, 6, 2, 12)),
        ("sub1-d6", corpus.facet_subset(rng, 6, 1, 14)),
    ]


def _parse_homology_lines(text: str) -> dict[int, tuple[int, tuple]]:
    """Read ``H_k: Z^2 + Z/2`` lines as printed by ``eigenchain homology``."""
    out = {}
    for line in text.splitlines():
        head, _, group = line.partition(": ")
        betti, torsion = 0, []
        for part in group.split(" + "):
            if part == "Z":
                betti = 1
            elif part.startswith("Z^"):
                betti = int(part[2:])
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            elif part != "0":
                raise ValueError(f"unexpected group {part!r}")
        out[int(head[2:])] = (betti, tuple(torsion))
    return out


def _expect_homology(found, expected, facets) -> str:
    if expected is None:
        chi = corpus.euler_characteristic(facets)
        return OK if _euler(found) == chi else f"Euler characteristic {_euler(found)} != {chi}"
    want = corpus.full_homology(expected, max(len(f) for f in facets) - 1)
    return OK if found == want else f"homology {found} != {want}"


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def setup_simplicial(seed: int, workdir: Path, tick: Callable[[], None]) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for copy in range(SIMPLICIAL_COPIES):
        for name, (nv, facets, expected) in _simplicial_families(rng):
            facets = corpus.relabel(rng, nv, facets)
            path = workdir / f"{copy}-{name}.json"
            path.write_text(json.dumps({"vertices": nv, "facets": facets}), encoding="utf-8")
            out = workdir / f"{copy}-{name}.cert.json"
            ops.append(_homology_op(str(path), facets, expected))
            ops.append(_certify_cli_op(str(path), str(out), facets, expected))
            tick()
    return ops


def _homology_op(path, facets, expected) -> Op:
    def check(out):
        code, text = out
        if code != 0:
            return f"homology exit code {code}"
        return _expect_homology(_parse_homology_lines(text), expected, facets)

    return Op("aux", lambda: _cli(["homology", path]), check)


def _certify_cli_op(path, out_path, facets, expected) -> Op:
    def settle(raw):
        code, text = raw
        return code, text, Path(out_path).read_bytes() if code in (0, 1) else b""

    def check(out):
        code, text, data = out
        if code not in (0, 1):
            return f"certify exit code {code}"
        payload = json.loads(data)
        hom = _homology_of(payload)
        problem = _expect_homology(hom, expected, facets)
        if problem != OK:
            return problem
        verdict = payload["verdict"]
        if f"verdict: {verdict}" not in text or code != (0 if verdict == "Eigenvalue" else 1):
            return f"exit code {code} and output disagree with verdict {verdict}"
        has_torsion = any(t for _, t in hom.values())
        if verdict == "Eigenvalue":
            if has_torsion:
                return "Eigenvalue despite torsion"
            return OK if _reverified(data) else "positive certificate does not re-verify"
        reason = payload["failure_reason"]
        if reason["kind"] != "Torsion":
            return f"unexpected negative reason {reason['kind']}"
        if expected is not None:
            return OK if has_torsion else "Torsion claimed where there is none"
        factors = reason["factors"]
        return OK if corpus.torsion_confirmed(facets, factors) else f"torsion {factors} not confirmed"

    return Op(
        "main",
        lambda: _cli(["certify", path, "-o", out_path]),
        check,
        settle=settle,
        certificate=lambda out: out[2] or None,
    )


# -- random-q and random-z ------------------------------------------------------

CORPUS_SEED = 1909  # draws the random complexes; the run's seed relabels them


@dataclass(frozen=True)
class RandomShape:
    ring: object
    max_len: int
    max_rank: int
    count: int


Q_SHAPE = RandomShape(rings.QQ, 5, 5, 64)
Z_SHAPE = RandomShape(rings.ZZ, 2, 16, 56)


def _corpus(shape: RandomShape):
    """The first ``count`` nonzero complexes ``random_complex`` draws from CORPUS_SEED.

    A corpus that is the same for every run keeps the mix of small and
    large inputs, and with it the latency percentiles and coefficient
    sizes, from moving with the run's seed; the seed changes the bases.
    """
    rng = random.Random(CORPUS_SEED)
    out = []
    while len(out) < shape.count:
        f = randgen.random_complex(shape.ring, rng, max_len=shape.max_len, max_rank=shape.max_rank)
        if f.total_dim():
            out.append(f)
    return out


def _relabel_complex(f, rng: random.Random):
    """``f`` in a seeded signed permutation of each degree's basis."""
    perm = {n: rng.sample(range(r), r) for n, r in f.ranks.items()}
    sign = {n: [rng.choice((1, -1)) for _ in range(r)] for n, r in f.ranks.items()}
    diffs = {}
    for n, d in f.diffs.items():
        po, so, pi, si = perm[n + 1], sign[n + 1], perm[n], sign[n]
        diffs[n] = matrix.Matrix(
            f.ring,
            [[so[i] * si[j] * d.data[po[i]][pi[j]] for j in range(d.cols)] for i in range(d.rows)],
            cols=d.cols,
        )
    return complexes.ChainComplex(f.ring, complexes.COCHAIN, dict(f.ranks), diffs)


def _render(cert) -> bytes:
    return formats.canonical_dumps(formats.certificate_to_payload(cert, complexes.COCHAIN)).encode()


def _negative_confirmed(f, lam_ranks, alpha_blocks, factors) -> bool:
    """A Z cone that is not exact over Q or over some F_p is not contractible over Z."""
    primes = {2, 3, 5, 7} | set(independent.primes_dividing(factors))
    return any(
        not independent.cone_is_exact(f, lam_ranks, alpha_blocks, p) for p in [Q, *sorted(primes)]
    )


def _random_setup(shape: RandomShape):
    field_ring = shape.ring.is_field

    def setup(seed: int, workdir: Path, tick: Callable[[], None]) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for i, f in enumerate(_corpus(shape)):
            tick()
            f = _relabel_complex(f, rng)
            ops.append(_certify_op(f, field_ring))
            # which degree each variant perturbs is drawn per complex, not per
            # run: it decides whether a variant goes through arbitration
            for _tag, lam, alpha in randgen.alpha_variants(f, random.Random(f"{CORPUS_SEED}-{i}")):
                ops.append(_decide_op(f, lam, alpha, field_ring))
        return ops

    return setup


def _certify_op(f, field_ring: bool) -> Op:
    def check(data):
        payload = json.loads(data)
        hom = _homology_of(payload)
        betti = independent.betti(f)
        if {n: b for n, (b, _) in hom.items()} != betti:
            return f"Betti numbers {hom} != {betti}"
        if payload["verdict"] == "Eigenvalue":
            return OK if _reverified(data) else "positive certificate does not re-verify"
        if field_ring:
            return "NotEigenvalue for a canonical pair over a field"
        reason = payload["failure_reason"]
        if reason["kind"] == "Torsion":
            confirmed = independent.torsion_confirmed(f.ranks, independent.diff_rows(f), reason["factors"])
            return OK if confirmed else "torsion not confirmed"
        return f"unexpected negative reason {reason['kind']} for a canonical pair"

    return Op("main", lambda: _render(certify.certify_homology_eigenvalue(f)), check, certificate=lambda d: d)


def _decide_op(f, lam, alpha, field_ring: bool) -> Op:
    lam_ranks = dict(lam.ranks)
    blocks = dict(alpha.blocks)

    def check(data):
        payload = json.loads(data)
        positive = payload["verdict"] == "Eigenvalue"
        if positive and not _reverified(data):
            return "positive certificate does not re-verify"
        if field_ring:
            exact = independent.cone_is_exact(f, lam_ranks, blocks)
            return OK if positive == exact else f"verdict {payload['verdict']} but cone exact={exact}"
        if positive:
            return OK
        factors = payload["failure_reason"]["factors"]
        return OK if _negative_confirmed(f, lam_ranks, blocks, factors) else UNCHECKED

    return Op("aux", lambda: _render(certify.decide_eigenvalue(f, lam, alpha)), check, certificate=lambda d: d)


# -- reverify ---------------------------------------------------------------------

def _reverify_inputs(ring):
    """(copies, families) of positive inputs per ring.

    Checking over Q costs ~10x more than over Z or F2, because of Fraction
    arithmetic.  The Q families are chosen to cost about the same (~20 ref
    each) and to make about a fifth of the ops, so the p90 falls inside one
    cluster rather than on the gap between two.
    """
    if ring == rings.QQ:
        return 4, [corpus.sphere(4), corpus.skeleton(4, 2), corpus.skeleton(5, 1)]
    families = [
        corpus.sphere(3), corpus.sphere(4), corpus.skeleton(4, 1), corpus.skeleton(4, 2),
        corpus.skeleton(5, 1), corpus.skeleton(5, 2), corpus.torus(),
    ]
    if ring == rings.GF(2):
        families.append(corpus.projective_plane())  # torsion-free over F2, so positive
    return 3, families


def _tamper(payload) -> dict:
    """Add one to a homotopy entry whose change the identity must detect.

    psi at degree m lands in degree t = m + 1 (chain) or m - 1 (cochain);
    changing psi[i][j] changes (d psi)[:, j] by d_t[:, i], so picking i with
    a nonzero column i in the differential leaving degree t makes
    d psi + psi d = -id fail at degree m, whatever the rest holds.
    """
    payload = json.loads(json.dumps(payload))
    witness = payload["witness"]
    step = 1 if payload["convention"] == "chain" else -1
    diffs = {d["from_degree"]: d["entries"] for d in witness["cone"]["diffs"]}
    ring = rings.ring_from_tag(payload["ring"])
    for block in witness["homotopy"]["blocks"]:
        d = diffs.get(block["degree"] + step)
        if not d:
            continue
        for i in range(len(block["entries"])):
            if any(Fraction(row[i]) != 0 for row in d):
                old = Fraction(block["entries"][i][0])
                block["entries"][i][0] = ring.render(ring.normalize(old + 1))
                return payload
    raise ValueError("no detectable homotopy entry to alter")


def setup_reverify(seed: int, workdir: Path, tick: Callable[[], None]) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for ring in (rings.ZZ, rings.GF(2), rings.QQ):
        copies, families = _reverify_inputs(ring)
        for _ in range(copies):
            for nv, facets, _expected in families:
                facets = corpus.relabel(rng, nv, facets)
                chain, _ = simplicial.simplicial_to_chain(nv, facets, ring)
                f = complexes.convert_convention(chain, complexes.COCHAIN)
                cert = certify.certify_homology_eigenvalue(f)
                payload = formats.certificate_to_payload(cert, complexes.CHAIN)
                if payload["verdict"] != "Eigenvalue":
                    raise ValueError("reverify inputs must be positive certificates")
                for kind, doc, want in (("main", payload, True), ("aux", _tamper(payload), False)):
                    data = formats.canonical_dumps(doc).encode()
                    ops.append(_reverify_op(kind, data, want))
                tick()
    rng.shuffle(ops)
    return ops


def _reverify_op(kind: str, data: bytes, want: bool) -> Op:
    return Op(
        kind,
        lambda: _reverified(data),
        lambda ok: OK if ok is want else f"reverify gave {ok}, expected {want}",
        certificate=lambda out: data,
        bytes_in=len(data),
    )


WORKLOADS = {
    "simplicial-z": setup_simplicial,
    "random-q": _random_setup(Q_SHAPE),
    "random-z": _random_setup(Z_SHAPE),
    "reverify": setup_reverify,
}
