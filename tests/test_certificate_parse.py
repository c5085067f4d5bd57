"""A malformed positive certificate is a parse error naming the field, never a bare Python error."""

import copy
import json

import pytest

from eigenchain.certify import certify_homology_eigenvalue
from eigenchain.errors import ParseError
from eigenchain.formats import canonical_dumps, certificate_to_payload, reverify_certificate
from conftest import circle_complex


@pytest.fixture
def payload():
    cert = certify_homology_eigenvalue(circle_complex())
    return json.loads(canonical_dumps(certificate_to_payload(cert, "chain")))


def test_well_formed_certificates_answer_as_before(payload):
    assert reverify_certificate(payload)
    assert not reverify_certificate({**payload, "verdict": "NotEigenvalue"})
    assert not reverify_certificate({**payload, "witness": None})
    tampered = copy.deepcopy(payload)
    tampered["witness"]["homotopy"]["blocks"] = []
    assert not reverify_certificate(tampered)


def test_witness_without_homotopy(payload):
    del payload["witness"]["homotopy"]
    with pytest.raises(ParseError, match="certificate witness: 'homotopy' is missing"):
        reverify_certificate(payload)


def test_witness_without_cone(payload):
    del payload["witness"]["cone"]
    with pytest.raises(ParseError, match="certificate witness: 'cone' is missing"):
        reverify_certificate(payload)


def test_witness_that_is_a_string(payload):
    payload["witness"] = "psi"
    with pytest.raises(ParseError, match="certificate: 'witness' must be a JSON object, got 'psi'"):
        reverify_certificate(payload)


def test_payload_without_ring(payload):
    del payload["ring"]
    with pytest.raises(ParseError, match="certificate: 'ring' is missing"):
        reverify_certificate(payload)


def test_payload_without_convention(payload):
    del payload["convention"]
    with pytest.raises(ParseError, match="certificate: 'convention' is missing"):
        reverify_certificate(payload)


def test_homotopy_that_is_a_list(payload):
    payload["witness"]["homotopy"] = []
    with pytest.raises(ParseError, match="certificate witness: 'homotopy' must be a JSON object, got \\[\\]"):
        reverify_certificate(payload)


@pytest.mark.parametrize("document", [[], "x", 3, None], ids=repr)
def test_payload_that_is_not_an_object(document):
    with pytest.raises(ParseError, match="^certificate: expected a JSON object$"):
        reverify_certificate(document)



@pytest.mark.parametrize(
    "change, message",
    [
        (lambda p: p.update(ring="X"), "certificate: unknown ring tag 'X'"),
        (lambda p: p.update(convention="Chain"), "certificate: bad convention 'Chain'"),
        (lambda p: p["witness"]["alpha"].pop("ring"), "certificate witness alpha: unknown ring tag None"),
        (lambda p: p["witness"]["cone"].pop("convention"), "certificate witness cone: bad convention None"),
    ],
    ids=["certificate-ring", "certificate-convention", "alpha-ring", "cone-convention"],
)
def test_a_missing_or_unknown_ring_or_convention_names_its_owner(payload, change, message):
    change(payload)
    with pytest.raises(ParseError) as caught:
        reverify_certificate(payload)
    assert str(caught.value) == message
