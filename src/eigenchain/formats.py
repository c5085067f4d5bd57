"""JSON file formats: complexes, graded maps, homotopies, certificates.

All scalars are written as strings and a JSON float is never read as
one; serialization is canonical (sorted keys, two-space indent, sorted
degree lists), and every format round-trips losslessly.  Files carry their own convention; chain-style
data is converted to the internal cochain indexing by negating degrees on
read and converted back on write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path

from .certify import EigenCertificate, FailureReason
from .complexes import (
    CHAIN,
    COCHAIN,
    ChainComplex,
    GradedMap,
    convert_convention,
    identity_map,
    validate_complex,
    zero_map,
)
from .cones import ConeComplex, Homotopy, verify_homotopy
from .errors import ParseError, ValidationError
from .matrix import Matrix
from .rings import ZZ, Ring, ring_from_tag
from .simplicial import simplicial_to_chain


@dataclass
class ComplexDoc:
    """An internal (cochain) complex plus the convention it was read in."""

    complex: ChainComplex
    convention: str

    def user_degree(self, n: int) -> int:
        return -n if self.convention == CHAIN else n

    internal_degree = user_degree  # negation is an involution


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load_json(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return payload


def detect_kind(payload: dict) -> str:
    if "facets" in payload:
        return "simplicial"
    if "verdict" in payload:
        return "certificate"
    if "degrees" in payload:
        return "complex"
    if "degree_shift" in payload:
        return "graded_map"
    if "blocks" in payload:
        return "homotopy"
    raise ParseError("unrecognized JSON document")


def _int_field(item, key: str, what: str, default=None) -> int:
    """``item[key]`` as a JSON integer; ``bool`` and floats are rejected."""
    if not isinstance(item, dict):
        raise ParseError(f"{what}: expected an object, got {item!r}")
    if key not in item:
        if default is None:
            raise ParseError(f"{what}: missing {key!r}")
        return default
    value = item[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what}: {key!r} must be a JSON integer, got {value!r}")
    return value


def _list_field(payload: dict, key: str, what: str):
    """``payload[key]`` as a JSON list; absent means empty."""
    value = payload.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{what}: {key!r} must be a JSON list, got {value!r}")
    return value


_ENTRY_TYPES = frozenset((int, str))  # exact types: excludes bool and float


def _parse_matrix(ring: Ring, entries, rows: int, cols: int, what: str) -> Matrix:
    if not isinstance(entries, list) or any(not isinstance(r, list) for r in entries):
        raise ParseError(f"{what}: entries must be a list of rows")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValidationError(f"{what}: expected a {rows}x{cols} matrix")
    if not _ENTRY_TYPES.issuperset(map(type, chain.from_iterable(entries))):
        bad = next(v for r in entries for v in r if type(v) not in _ENTRY_TYPES)
        raise ParseError(f"{what}: 'entries' must hold strings or JSON integers, got {bad!r}")
    try:
        return Matrix(ring, [[ring.parse(str(v)) for v in row] for row in entries], cols=cols)
    except ParseError as exc:
        raise ParseError(f"{what}: {exc}") from None


def complex_from_payload(payload: dict) -> ComplexDoc:
    ring = ring_from_tag(payload.get("ring"))
    convention = payload.get("convention")
    if convention not in (CHAIN, COCHAIN):
        raise ParseError(f"bad convention {convention!r}")
    sign = -1 if convention == CHAIN else 1
    ranks = {}
    for item in _list_field(payload, "degrees", "complex"):
        deg = _int_field(item, "degree", "degrees entry")
        rank = _int_field(item, "rank", f"degree {deg}")
        if rank < 0:
            raise ValidationError(f"negative rank at degree {deg}")
        if rank:
            ranks[sign * deg] = rank
    step = 1  # internal cochain
    diffs = {}
    for item in _list_field(payload, "diffs", "complex"):
        user_from = _int_field(item, "from_degree", "diffs entry")
        n = sign * user_from
        rows = ranks.get(n + step, 0)
        cols = ranks.get(n, 0)
        m = _parse_matrix(ring, item.get("entries"), rows, cols, f"differential from degree {user_from}")
        if not m.is_zero():
            diffs[n] = m
    cx = ChainComplex(ring, COCHAIN, ranks, diffs)
    report = validate_complex(cx)
    if not report.ok:
        raise ValidationError(f"not a complex: d∘d != 0 leaving degree {sign * report.degree}")
    return ComplexDoc(cx, convention)


def complex_to_payload(doc: ComplexDoc) -> dict:
    sign = -1 if doc.convention == CHAIN else 1
    cx = doc.complex
    degrees = [
        {"degree": sign * n, "rank": cx.ranks[n]}
        for n in sorted(cx.ranks, key=lambda n: sign * n)
    ]
    diffs = [
        {"from_degree": sign * n, "entries": cx.diffs[n].render_rows()}
        for n in sorted(cx.diffs, key=lambda n: sign * n)
    ]
    return {
        "ring": cx.ring.json_tag,
        "convention": doc.convention,
        "degrees": degrees,
        "diffs": diffs,
    }


def graded_map_from_payload(payload: dict, source: ComplexDoc, target: ComplexDoc) -> GradedMap:
    ring = ring_from_tag(payload.get("ring"))
    if ring != source.complex.ring:
        raise ValidationError("map ring differs from the complexes' ring")
    convention = payload.get("convention", source.convention)
    if convention != source.convention:
        raise ValidationError("map convention differs from the complexes' convention")
    sign = -1 if convention == CHAIN else 1
    user_shift = _int_field(payload, "degree_shift", "graded map", default=0)
    shift = sign * user_shift
    blocks = {}
    for item in _list_field(payload, "blocks", "graded map"):
        user_deg = _int_field(item, "degree", "blocks entry")
        n = sign * user_deg
        rows = target.complex.rank(n + shift)
        cols = source.complex.rank(n)
        m = _parse_matrix(ring, item.get("entries"), rows, cols, f"block at degree {user_deg}")
        if not m.is_zero():
            blocks[n] = m
    return GradedMap(source.complex, target.complex, shift, blocks)


def graded_map_to_payload(gm: GradedMap, convention: str) -> dict:
    sign = -1 if convention == CHAIN else 1
    blocks = [
        {"degree": sign * n, "entries": gm.blocks[n].render_rows()}
        for n in sorted(gm.blocks, key=lambda n: sign * n)
    ]
    return {
        "ring": gm.ring.json_tag,
        "convention": convention,
        "degree_shift": sign * gm.degree_shift,
        "blocks": blocks,
    }


def homotopy_from_payload(payload: dict, on: ComplexDoc) -> Homotopy:
    ring = ring_from_tag(payload.get("ring"))
    if ring != on.complex.ring:
        raise ValidationError("homotopy ring differs from the complex ring")
    convention = payload.get("convention", on.convention)
    if convention != on.convention:
        raise ValidationError("homotopy convention differs from the complex convention")
    sign = -1 if convention == CHAIN else 1
    blocks = {}
    for item in _list_field(payload, "blocks", "homotopy"):
        user_deg = _int_field(item, "degree", "homotopy blocks entry")
        n = sign * user_deg
        rows = on.complex.rank(n - 1)
        cols = on.complex.rank(n)
        m = _parse_matrix(ring, item.get("entries"), rows, cols, f"homotopy block at degree {user_deg}")
        if not m.is_zero():
            blocks[n] = m
    return Homotopy(on.complex, blocks)


def homotopy_to_payload(h: Homotopy, convention: str, with_ring: bool = True) -> dict:
    sign = -1 if convention == CHAIN else 1
    payload = {
        "blocks": [
            {"degree": sign * n, "entries": h.blocks[n].render_rows()}
            for n in sorted(h.blocks, key=lambda n: sign * n)
        ]
    }
    if with_ring:
        payload["ring"] = h.on.ring.json_tag
        payload["convention"] = convention
    return payload


def cone_to_payload(cone: ConeComplex, convention: str) -> dict:
    payload = complex_to_payload(ComplexDoc(cone.underlying, convention))
    sign = -1 if convention == CHAIN else 1
    payload["layout"] = [
        {
            "degree": sign * n,
            "lambda_rank": cone.layout[n].lambda_rank,
            "complement_rank": cone.layout[n].complement_rank,
            "image_rank": cone.layout[n].image_rank,
        }
        for n in sorted(cone.layout, key=lambda n: sign * n)
    ]
    return payload


def _failure_to_payload(reason: FailureReason, sign: int):
    return {
        "kind": reason.kind,
        "degree": sign * reason.degree if reason.degree is not None else None,
        "factors": list(reason.factors),
    }


def certificate_to_payload(cert: EigenCertificate, convention: str) -> dict:
    sign = -1 if convention == CHAIN else 1
    hom_degrees = sorted(cert.homology_betti, key=lambda n: sign * n)
    payload = {
        "verdict": cert.verdict,
        "ring": cert.ring.json_tag,
        "convention": convention,
        "eigenobject": cert.eigenobject,
        "lambda_ranks": [
            {"degree": sign * n, "rank": r}
            for n, r in sorted(cert.lambda_ranks.items(), key=lambda kv: sign * kv[0])
        ],
        "homology": [
            {
                "degree": sign * n,
                "betti": cert.homology_betti[n],
                "torsion": list(cert.homology_torsion.get(n, ())),
            }
            for n in hom_degrees
        ],
        "alpha_injective": [
            {"degree": sign * n, "injective": flag}
            for n, flag in sorted(cert.alpha_injective.items(), key=lambda kv: sign * kv[0])
        ],
    }
    if cert.verdict == "Eigenvalue":
        payload["failure_reason"] = None
    else:
        # Report the failure at the smallest degree in the file's convention.
        reasons = cert.failure_reasons or ([cert.failure_reason] if cert.failure_reason else [])
        primary = min(
            reasons,
            key=lambda r: (sign * r.degree if r.degree is not None else 0),
        )
        payload["failure_reason"] = _failure_to_payload(primary, sign)
    if cert.witness is not None and cert.cone is not None:
        payload["witness"] = {
            "cone": cone_to_payload(cert.cone, convention),
            "alpha": graded_map_to_payload(cert.cone.source_alpha, convention),
            "homotopy": homotopy_to_payload(cert.witness, convention, with_ring=False),
        }
    else:
        payload["witness"] = None
    return payload


def reverify_certificate(payload: dict) -> bool:
    """Re-check a positive certificate from its serialized data alone."""
    if payload.get("verdict") != "Eigenvalue":
        return False
    witness = payload.get("witness")
    if not witness:
        return False
    cone_doc = complex_from_payload(witness["cone"])
    psi = homotopy_from_payload(
        {**witness["homotopy"], "ring": payload["ring"], "convention": payload["convention"]},
        cone_doc,
    )
    z = cone_doc.complex
    report = verify_homotopy(z, zero_map(z, z), identity_map(z), psi)
    return report.ok


def load_document(path) -> tuple[str, dict]:
    payload = _load_json(path)
    return detect_kind(payload), payload


def load_complex(path, ring: Ring | None = None) -> ComplexDoc:
    """Read a complex file; simplicial files are converted on the fly."""
    kind, payload = load_document(path)
    if kind == "complex":
        return complex_from_payload(payload)
    if kind == "simplicial":
        use_ring = ring if ring is not None else ZZ
        vertices = payload.get("vertices")
        if not isinstance(vertices, list):
            vertices = _int_field(payload, "vertices", "simplicial file")
        facets = _list_field(payload, "facets", "simplicial file")
        if any(not isinstance(facet, list) for facet in facets):
            raise ParseError("simplicial file: each of 'facets' must be a JSON list of vertex indices")
        chain, _ = simplicial_to_chain(vertices, facets, use_ring)
        return ComplexDoc(convert_convention(chain, COCHAIN), CHAIN)
    raise ParseError(f"expected a complex or simplicial file, found {kind}")


def write_payload(path, payload: dict):
    Path(path).write_text(canonical_dumps(payload), encoding="utf-8")


def bundled_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(resources.files("eigenchain") / "data" / name)
