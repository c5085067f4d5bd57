"""Degree-keyed lists in the JSON formats: one order, one round trip, one entry-error form.

Every list keyed by degree is written in ascending file degree, whichever
convention the file is in, and reads back to what was written.  An entry
that is not an object, or whose degree or field is missing or mistyped, is
named as ``"<what> <list> entry"`` or ``"<what> <list> entry at <key> <n>"``.
"""

import json
from dataclasses import asdict

import pytest

from eigenchain import ZZ, canonical_alpha, certify_homology_eigenvalue, convert_convention
from eigenchain.complexes import CHAIN, COCHAIN, MAX_RANK
from eigenchain.errors import ParseError, ValidationError
from eigenchain.formats import (
    ComplexDoc,
    canonical_dumps,
    certificate_to_payload,
    complex_from_payload,
    complex_to_payload,
    graded_map_from_payload,
    graded_map_to_payload,
    homotopy_from_payload,
    homotopy_to_payload,
)
from eigenchain.simplicial import simplicial_to_chain

TETRAHEDRON = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def sphere():
    """The 2-sphere over Z: cochain degrees -2, -1, 0, homology in -2 and 0."""
    chain, _ = simplicial_to_chain(4, TETRAHEDRON, ZZ)
    return convert_convention(chain, COCHAIN)


def reread(payload):
    """``payload`` as a reader sees it after a trip through the canonical bytes."""
    return json.loads(canonical_dumps(payload))


def file_degrees(entries, key="degree"):
    return [entry[key] for entry in entries]


def ascending(degrees):
    return degrees == sorted(degrees) and len(set(degrees)) == len(degrees)


@pytest.mark.parametrize("convention", [CHAIN, COCHAIN])
def test_every_list_round_trips_in_ascending_file_degree(convention):
    sign = 1 if convention == COCHAIN else -1
    f = sphere()
    lam, alpha = canonical_alpha(f)
    f_doc, lam_doc = ComplexDoc(f, convention), ComplexDoc(lam, convention)

    payload = reread(complex_to_payload(f_doc))
    assert file_degrees(payload["degrees"]) == sorted(sign * n for n in f.ranks)
    assert file_degrees(payload["diffs"], "from_degree") == sorted(sign * n for n in f.diffs)
    assert len(payload["diffs"]) == 2
    again = complex_from_payload(payload)
    assert (again.complex, again.convention) == (f, convention)

    payload = reread(graded_map_to_payload(alpha, convention))
    assert file_degrees(payload["blocks"]) == sorted(sign * n for n in alpha.blocks)
    assert len(payload["blocks"]) == 2
    assert graded_map_from_payload(payload, lam_doc, f_doc) == alpha

    cert = certify_homology_eigenvalue(f)
    cone_doc = ComplexDoc(cert.cone.underlying, convention)
    payload = reread(homotopy_to_payload(cert.witness, convention))
    assert file_degrees(payload["blocks"]) == sorted(sign * n for n in cert.witness.blocks)
    assert len(payload["blocks"]) > 1
    assert homotopy_from_payload(payload, cone_doc).blocks == cert.witness.blocks


def test_a_chain_certificate_lists_every_degree_in_ascending_file_degree():
    f = sphere()
    cert = certify_homology_eigenvalue(f)
    payload = certificate_to_payload(cert, CHAIN)
    lists = {
        "lambda_ranks": (payload["lambda_ranks"], cert.lambda_ranks),
        "homology": (payload["homology"], cert.homology_betti),
        "alpha_injective": (payload["alpha_injective"], cert.alpha_injective),
        "layout": (payload["witness"]["cone"]["layout"], cert.cone.layout),
    }
    for name, (entries, by_internal_degree) in lists.items():
        degrees = file_degrees(entries)
        assert len(degrees) > 1, name
        assert ascending(degrees), name
        assert degrees == sorted(-n for n in by_internal_degree), name
    assert payload["homology"] == [
        {"degree": 0, "betti": 1, "torsion": []},
        {"degree": 1, "betti": 0, "torsion": []},
        {"degree": 2, "betti": 1, "torsion": []},
    ]
    layout = payload["witness"]["cone"]["layout"]
    assert layout[0] == {"degree": 0, **asdict(cert.cone.layout[0])}
    homotopy = payload["witness"]["homotopy"]
    assert sorted(homotopy) == ["blocks"]
    assert ascending(file_degrees(homotopy["blocks"]))


def complex_file(degrees=(), convention=COCHAIN):
    return {"ring": "Z", "convention": convention, "degrees": list(degrees), "diffs": []}


@pytest.mark.parametrize(
    "key, entries, message",
    [
        ("degrees", [{"rank": 1}], "complex degrees entry: missing 'degree'"),
        ("degrees", [{"degree": 1.5, "rank": 1}], "complex degrees entry: 'degree' must be a JSON integer, got 1.5"),
        ("degrees", [{"degree": 3}], "complex degrees entry at degree 3: missing 'rank'"),
        ("degrees", [{"degree": 3, "rank": "1"}], "complex degrees entry at degree 3: 'rank' must be a JSON integer, got '1'"),
        ("degrees", [7], "complex degrees entry: expected an object, got 7"),
        ("diffs", [{"entries": []}], "complex diffs entry: missing 'from_degree'"),
        ("diffs", [{"from_degree": 1.5, "entries": []}], "complex diffs entry: 'from_degree' must be a JSON integer, got 1.5"),
        ("diffs", [7], "complex diffs entry: expected an object, got 7"),
    ],
    ids=[
        "degrees-no-degree",
        "degrees-float-degree",
        "degrees-no-rank",
        "degrees-string-rank",
        "degrees-not-an-object",
        "diffs-no-degree",
        "diffs-float-degree",
        "diffs-not-an-object",
    ],
)
def test_an_entry_error_names_its_list_and_degree(key, entries, message):
    with pytest.raises(ParseError) as info:
        complex_from_payload({**complex_file(), key: entries})
    assert str(info.value) == message


def test_rank_errors_name_the_file_degree():
    with pytest.raises(ValidationError, match="^negative rank at degree 3$"):
        complex_from_payload(complex_file([{"degree": 3, "rank": -1}], CHAIN))
    with pytest.raises(ParseError, match=f"^complex: rank {MAX_RANK + 1} at degree 3 exceeds the size cap of {MAX_RANK}$"):
        complex_from_payload(complex_file([{"degree": 3, "rank": MAX_RANK + 1}], CHAIN))
    with pytest.raises(ParseError, match="^complex: 'degree' 3 appears twice in 'degrees'$"):
        complex_from_payload(complex_file([{"degree": 3, "rank": 1}, {"degree": 3, "rank": 0}], CHAIN))
