"""JSON file formats: complexes, graded maps, homotopies, certificates.

All scalars are written as strings and a JSON float is never read as
one; serialization is canonical (sorted keys, two-space indent, degree
lists in ascending file degree), and every format round-trips losslessly.
Files carry their own convention; chain-style data is converted to the
internal cochain indexing by negating degrees on read and converted back
on write, with the one sign :func:`~eigenchain.check.convention_sign`, which
refuses any other convention in a writer as in a reader.
Every degree-keyed list (``degrees``, ``diffs``, ``blocks``, and a
certificate's ranks, homology, flags and layout) is written by
:func:`_write_list`; those read back go through :func:`_read_list`,
which refuses a repeated degree and names a bad entry by its degree.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

from .complexes import CHAIN, COCHAIN, ChainComplex, GradedMap, Homotopy, convert_convention, validate_complex
from .check import MAX_RANK, _entry_values, _int_field, _list_field, _ranks, _read_list, certificate_failure
from .check import check_homotopy_shift, convention_sign, read_header
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
        return convention_sign(self.convention) * n


def canonical_dumps(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte, but faster.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder;
    documents here hold only dicts with ``str`` keys, lists, ``str``,
    ``int``, ``bool`` and ``None``, which this writer renders directly.
    A tuple is written as a list, as ``json`` does.  Any other value
    (floats included, which no format here writes) or key raises
    ``TypeError``.
    """
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list):
    """Append the indented JSON of ``value`` to ``out``; ``newline`` ends with the current indent."""
    if isinstance(value, str):
        out.append(_json_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            if type(item) is str:
                out.append(_json_string(item))
            else:
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        bad = next((key for key in value if not isinstance(key, str)), None)
        if bad is not None:
            raise TypeError(f"canonical JSON keys must be str, got {bad!r}")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(_json_string(key))
            out.append(": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"canonical JSON cannot hold {type(value).__name__} {value!r}")


def _load_json(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, nested past the recursion limit, or an integer past
        # Python's digit limit for int().
        raise ParseError(f"{path}: {exc}") from None
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


def _parse_matrix(ring: Ring, entries, rows: int, cols: int, what: str) -> Matrix:
    value = _entry_values(ring, entries, rows, cols, what)
    return Matrix._raw(ring, rows, cols, tuple(tuple(map(value.__getitem__, row)) for row in entries))


def _write_list(values: dict, sign: int, fields, degree_key: str = "degree") -> list:
    """``{degree_key: file degree, **fields(value)}`` per internal degree of ``values``, in ascending file degree."""
    return [{degree_key: sign * n, **fields(values[n])} for n in sorted(values, key=lambda n: sign * n)]


def _read_blocks(payload: dict, key: str, degree_key: str, shape, ring: Ring, sign: int, what: str) -> dict:
    """``payload[key]``, a list of ``{degree_key, entries}``; ``shape(n)`` is the (rows, cols) at internal degree ``n``."""

    def read(item, n, where):
        return _parse_matrix(ring, item.get("entries"), *shape(n), where)

    return _read_list(payload, key, degree_key, sign, what, read)


def _entries(m: Matrix) -> dict:
    return {"entries": m.render_rows()}


def _read_header(payload: dict, on: ComplexDoc, what: str) -> tuple[Ring, int]:
    """Ring and sign of a map or homotopy file read against ``on``'s complex; an absent convention is ``on``'s."""
    ring, convention, sign = read_header(payload, what, on.convention)
    if ring != on.complex.ring:
        raise ValidationError(f"{what} ring differs from the complex ring")
    if convention != on.convention:
        raise ValidationError(f"{what} convention differs from the complex convention")
    return ring, sign


def complex_from_payload(payload: dict) -> ComplexDoc:
    ring = ring_from_tag(payload.get("ring"))
    convention = payload.get("convention")
    sign = convention_sign(convention)
    ranks = _ranks(payload, sign, MAX_RANK)  # ChainComplex drops the zeros

    def shape(n):  # internal cochain: the differential leaving n lands in n + 1
        return ranks.get(n + 1, 0), ranks.get(n, 0)

    diffs = _read_blocks(payload, "diffs", "from_degree", shape, ring, sign, "complex")
    cx = ChainComplex(ring, COCHAIN, ranks, diffs)
    report = validate_complex(cx)
    if not report.ok:
        raise ValidationError(f"not a complex: d∘d != 0 leaving degree {sign * report.degree}")
    return ComplexDoc(cx, convention)


def complex_to_payload(doc: ComplexDoc) -> dict:
    sign = convention_sign(doc.convention)
    cx = doc.complex
    return {
        "ring": cx.ring.json_tag,
        "convention": doc.convention,
        "degrees": _write_list(cx.ranks, sign, lambda r: {"rank": r}),
        "diffs": _write_list(cx.diffs, sign, _entries, "from_degree"),
    }


def graded_map_from_payload(payload: dict, source: ComplexDoc, target: ComplexDoc) -> GradedMap:
    ring, sign = _read_header(payload, source, "graded map")
    shift = sign * _int_field(payload, "degree_shift", "graded map", default=0)

    def shape(n):
        return target.complex.rank(n + shift), source.complex.rank(n)

    blocks = _read_blocks(payload, "blocks", "degree", shape, ring, sign, "graded map")
    return GradedMap(source.complex, target.complex, shift, blocks)


def graded_map_to_payload(gm: GradedMap, convention: str) -> dict:
    sign = convention_sign(convention)
    return {
        "ring": gm.ring.json_tag,
        "convention": convention,
        "degree_shift": sign * gm.degree_shift,
        "blocks": _write_list(gm.blocks, sign, _entries),
    }


def homotopy_from_payload(payload: dict, on: ComplexDoc) -> Homotopy:
    ring, sign = _read_header(payload, on, "homotopy")
    check_homotopy_shift(payload, on.convention)

    def shape(n):
        return on.complex.rank(n - 1), on.complex.rank(n)

    return Homotopy(on.complex, _read_blocks(payload, "blocks", "degree", shape, ring, sign, "homotopy"))


def homotopy_to_payload(h: Homotopy, convention: str) -> dict:
    return {
        "ring": h.on.ring.json_tag,
        "convention": convention,
        "blocks": _write_list(h.blocks, convention_sign(convention), _entries),
    }


def cone_to_payload(cone, convention: str) -> dict:
    payload = complex_to_payload(ComplexDoc(cone.underlying, convention))
    payload["layout"] = _write_list(cone.layout, convention_sign(convention), vars)  # a ConeLayout's three ranks
    return payload


def certificate_to_payload(cert, convention: str) -> dict:
    sign = convention_sign(convention)
    payload = {
        "verdict": cert.verdict,
        "ring": cert.ring.json_tag,
        "convention": convention,
        "eigenobject": "R",
        "lambda_ranks": _write_list(cert.lambda_ranks, sign, lambda r: {"rank": r}),
        "homology": _write_list(
            {n: (betti, cert.homology_torsion.get(n, ())) for n, betti in cert.homology_betti.items()},
            sign,
            lambda h: {"betti": h[0], "torsion": list(h[1])},
        ),
        "alpha_injective": _write_list(cert.alpha_injective, sign, lambda ok: {"injective": ok}),
    }
    if cert.witness is None:
        # Report the failure at the smallest degree in the file's convention.
        primary = min(cert.failure_reasons, key=lambda r: sign * r.degree)
        payload["failure_reason"] = {
            "kind": primary.kind,
            "degree": sign * primary.degree,
            "factors": list(primary.factors),
        }
        payload["witness"] = None
    else:
        payload["failure_reason"] = None
        payload["witness"] = {
            "cone": cone_to_payload(cert.cone, convention),
            "alpha": graded_map_to_payload(cert.cone.source_alpha, convention),
            "homotopy": {"blocks": _write_list(cert.witness.blocks, sign, _entries)},
        }
    return payload


def reverify_certificate(payload: dict) -> bool:
    """Re-check a positive certificate from its serialized data alone, by :func:`~eigenchain.check.certificate_failure`.

    A payload that is not a JSON object, or a field it reads that is
    missing or mistyped, raises :class:`ParseError` (naming the field); a
    witness cone that is not a complex raises :class:`ValidationError`.
    """
    return certificate_failure(payload) is None


def load_document(path) -> tuple[str, dict]:
    payload = _load_json(path)
    return detect_kind(payload), payload


def load_complex(path, ring: Ring | None = None) -> ComplexDoc:
    """Read a complex file; simplicial files are converted on the fly.

    ``ring`` is the ring of simplicial input (default Z); a complex file
    carries its own, which ``ring``, when given, must equal.
    """
    kind, payload = load_document(path)
    if kind == "complex":
        doc = complex_from_payload(payload)
        if ring is not None and ring != doc.complex.ring:
            raise ValidationError(f"{path}: ring {ring} differs from the file's ring {doc.complex.ring}")
        return doc
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
    """Write ``canonical_dumps(payload)`` to ``path``, overwriting it in place.

    The file is opened without ``O_TRUNC`` (created with mode 0o666 under
    the umask, as ``Path.write_text`` would), written, then cut to the end
    of the data.  Truncating an existing file to zero before rewriting it
    makes ext4 flush it on close (``auto_da_alloc``); on a 2-vCPU VM that
    cost 235-276 µs per certificate against 15 µs this way, about 14% of
    a simplicial ``certify``.  Only a regular file is cut; ``truncate`` on a device
    such as ``/dev/null`` fails with ``EINVAL``.
    """
    data = canonical_dumps(payload).encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def bundled_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(resources.files("eigenchain") / "data" / name)
