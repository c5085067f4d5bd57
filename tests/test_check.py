"""The certificate checker binds every claim, accepts every genuine certificate, and computes nothing with the kernel.

Each mutant below alters one claimed field of a genuine certificate, the
7-vertex torus or the circle over Z, F2 and Q, in both conventions; the
checker must reject it, naming the check that failed.  A spelling of an
equal value is no mutant: it must still be accepted.
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from eigenchain import GF, QQ, ZZ, GradedMap, Matrix, certify, scalar_object
from eigenchain.certify import certify_homology_eigenvalue, decide_eigenvalue
from eigenchain.check import MAX_RANK, certificate_failure
from eigenchain.complexes import CHAIN, COCHAIN, ChainComplex, CheckReport, convert_convention
from eigenchain.errors import ParseError, ValidationError
from eigenchain.formats import bundled_path, canonical_dumps, certificate_to_payload, load_complex, reverify_certificate
from eigenchain.simplicial import simplicial_to_chain
from conftest import circle_pair
from test_golden_digest import WIDE_Q, corpus, random_corpus
from test_golden_simplicial import TORUS
from test_golden_simplicial import corpus_certificates as simplicial_certificates

CONVENTIONS = (CHAIN, COCHAIN)


def _payload(cert, convention) -> dict:
    return json.loads(canonical_dumps(certificate_to_payload(cert, convention)))


def _torus(ring):
    chain, _ = simplicial_to_chain(7, TORUS, ring)
    return convert_convention(chain, COCHAIN)


def _circle(ring):
    chain, _ = simplicial_to_chain(3, [[0, 1], [1, 2], [0, 2]], ring)
    return convert_convention(chain, COCHAIN)


GENUINE = {
    f"{name}-{ring}-{convention}": (ring, build, convention)
    for name, build in (("torus", _torus), ("circle", _circle))
    for ring in (ZZ, GF(2), QQ)
    for convention in CONVENTIONS
}


@pytest.fixture(params=sorted(GENUINE))
def genuine(request):
    """``(ring, payload)`` of a genuine positive certificate."""
    ring, build, convention = GENUINE[request.param]
    payload = _payload(certify_homology_eigenvalue(build(ring)), convention)
    assert certificate_failure(payload) is None
    return ring, payload


def _sign(payload) -> int:
    return -1 if payload["convention"] == CHAIN else 1


def _by_degree(items, payload, key="degree") -> dict:
    """A degree list of ``payload`` as ``{internal degree: item}``."""
    return {_sign(payload) * item[key]: item for item in items}


def _diffs(payload) -> dict:
    return _by_degree(payload["witness"]["cone"]["diffs"], payload, "from_degree")


def _lam(payload, n) -> int:
    """lambda's rank in cone degree ``n`` (internal), that of lambda_{n+1}."""
    item = _by_degree(payload["witness"]["cone"]["layout"], payload).get(n)
    return item["lambda_rank"] if item else 0


def _plus_one(ring, text) -> str:
    return ring.render(ring.normalize(text) + 1)


def _alpha_entry(ring, payload):
    block = next(b for b in payload["witness"]["alpha"]["blocks"] if b["entries"] and b["entries"][0])
    block["entries"][0][0] = _plus_one(ring, block["entries"][0][0])


def _alpha_ring(ring, payload):
    payload["witness"]["alpha"]["ring"] = "Z" if ring == QQ else "Q"


def _alpha_shift(ring, payload):
    payload["witness"]["alpha"]["degree_shift"] = 1


def _lambda_rank(ring, payload):
    payload["lambda_ranks"][0]["rank"] += 1


def _betti(ring, payload):
    payload["homology"][0]["betti"] += 1


def _torsion(ring, payload):
    payload["homology"][0]["torsion"] = [2]


def _layout_rank(ring, payload):
    payload["witness"]["cone"]["layout"][0]["complement_rank"] += 1


def _injectivity(ring, payload):
    payload["alpha_injective"][0]["injective"] = False


def _failure_reason(ring, payload):
    payload["failure_reason"] = {"kind": "RankMismatch", "degree": 0, "factors": []}


def _lambda_row(ring, payload):
    """A nonzero entry in the lambda-to-lambda block of the cone differential leaving ``n``.

    Alone it would break d∘d through alpha_{n+2}, the cone differential
    leaving ``n + 1`` on that lambda vector, so that column of alpha is
    cleared too, in the cone and in ``witness.alpha`` alike: the cone stays
    a complex and alpha still matches it.
    """
    diffs = _diffs(payload)
    n = min(n for n in diffs if _lam(payload, n) and _lam(payload, n + 1))
    diffs[n]["entries"][0][0] = "1"
    alpha = _by_degree(payload["witness"]["alpha"]["blocks"], payload)[n + 2]["entries"]
    for row in alpha:
        row[0] = "0"
    for row in diffs[n + 1]["entries"][_lam(payload, n + 2):]:
        row[0] = "0"


def _homotopy_entry(ring, payload):
    block = next(b for b in payload["witness"]["homotopy"]["blocks"] if b["entries"] and b["entries"][0])
    block["entries"][0][0] = _plus_one(ring, block["entries"][0][0])


MUTANTS = [
    (_alpha_entry, "alpha at degree"),
    (_alpha_ring, "alpha's ring differs"),
    (_alpha_shift, "alpha's degree_shift is not 0"),
    (_lambda_rank, "lambda_ranks differ"),
    (_injectivity, "alpha_injective"),
    (_betti, "homology at degree"),
    (_torsion, "homology at degree"),
    (_layout_rank, "layout at degree"),
    (_failure_reason, "failure reason"),
    (_lambda_row, "lambda row"),
    (_homotopy_entry, "!= -id"),
]


@pytest.mark.parametrize("mutate, reason", MUTANTS, ids=[m.__name__.strip("_") for m, _ in MUTANTS])
def test_each_claimed_field_is_bound(genuine, mutate, reason):
    ring, payload = genuine
    mutant = copy.deepcopy(payload)
    mutate(ring, mutant)
    assert reason in certificate_failure(mutant)
    assert reverify_certificate(mutant) is False


def test_an_f_block_entry_makes_the_cone_no_complex(genuine):
    # The first nonzero entry of d_F in a cone differential that composes with another.
    ring, payload = genuine
    diffs = _diffs(payload)
    rows, i, j = next(
        (rows, i, j)
        for n in sorted(diffs)
        if n - 1 in diffs or n + 1 in diffs
        for rows in [diffs[n]["entries"]]
        for i in range(_lam(payload, n + 1), len(rows))
        for j in range(_lam(payload, n), len(rows[i]))
        if rows[i][j] != "0"
    )
    rows[i][j] = _plus_one(ring, rows[i][j])
    with pytest.raises(ValidationError, match="^not a complex: d∘d != 0 leaving degree"):
        reverify_certificate(payload)


def test_sevens_in_alpha_ranks_of_99_and_no_homology_are_rejected(genuine):
    ring, payload = genuine
    for block in payload["witness"]["alpha"]["blocks"]:
        block["entries"] = [["7"] * len(row) for row in block["entries"]]
    for item in payload["lambda_ranks"]:
        item["rank"] = 99
    payload["homology"] = payload["alpha_injective"] = []
    assert certificate_failure(payload) is not None


def test_golden_and_bundled_certificates_pass_in_both_conventions():
    certificates = [cert for _, cert, _ in corpus()] + [cert for _, cert, _ in random_corpus(*WIDE_Q)]
    certificates.append(decide_eigenvalue(*circle_pair()))  # the bundled worked pair
    certificates.append(certify_homology_eigenvalue(load_complex(bundled_path("s1_simplicial.json")).complex))
    positives = 0
    for cert in certificates:
        for convention in CONVENTIONS:
            expected = None if cert.is_eigenvalue() else "the verdict is not Eigenvalue"
            assert certificate_failure(_payload(cert, convention)) == expected
        positives += cert.is_eigenvalue()
    assert positives > 100


def test_golden_simplicial_certificates_pass():
    for label, data in simplicial_certificates():
        payload = json.loads(data)
        expected = None if payload["verdict"] == "Eigenvalue" else "the verdict is not Eigenvalue"
        assert certificate_failure(payload) == expected, label


def _q_pair_with_a_half():
    """F = Q in degree 0 with lambda = Q and alpha = 1/2: an isomorphism, so an Eigenvalue."""
    f = ChainComplex(QQ, COCHAIN, {0: 1})
    lam = scalar_object(QQ, {0: 1})
    return decide_eigenvalue(f, lam, GradedMap(lam, f, 0, {0: Matrix(QQ, [[Fraction(1, 2)]])}))


def test_an_equal_value_spelled_otherwise_still_matches():
    half = _payload(_q_pair_with_a_half(), COCHAIN)
    [block] = half["witness"]["alpha"]["blocks"]
    assert block["entries"] == [["1/2"]]
    block["entries"] = [["2/4"]]
    assert certificate_failure(half) is None

    f2 = _payload(certify_homology_eigenvalue(_torus(GF(2))), CHAIN)
    spaced = _payload(certify_homology_eigenvalue(_torus(ZZ)), CHAIN)
    for payload, respell in ((f2, {"1": "3"}), (spaced, {"1": " 1 "})):
        for block in payload["witness"]["alpha"]["blocks"]:
            block["entries"] = [[respell.get(v, v) for v in row] for row in block["entries"]]
        assert any(respell["1"] in row for b in payload["witness"]["alpha"]["blocks"] for row in b["entries"])
        assert certificate_failure(payload) is None


def test_a_missing_alpha_block_must_be_zero_in_the_cone(genuine):
    ring, payload = genuine
    del payload["witness"]["alpha"]["blocks"][0]
    assert "alpha at degree" in certificate_failure(payload)


def _one_degree_cone(rank: int) -> dict:
    """A certificate of a few hundred bytes whose cone claims ``rank`` at one degree and holds no entry."""
    return {
        "verdict": "Eigenvalue",
        "ring": "Z",
        "convention": "cochain",
        "witness": {
            "alpha": {"ring": "Z", "blocks": [{"degree": 1}]},
            "cone": {
                "ring": "Z",
                "convention": "cochain",
                "degrees": [{"degree": 1, "rank": rank}],
                "layout": [{"degree": 1, "lambda_rank": 0, "complement_rank": rank, "image_rank": 0}],
            },
            "homotopy": {"blocks": []},
        },
    }


def test_a_cone_rank_above_the_cap_is_refused_before_anything_is_built():
    # A cone degree holds lambda_{n+1} and F_n, each within a complex file's cap.
    assert "d∘psi + psi∘d != -id" in certificate_failure(_one_degree_cone(2 * MAX_RANK))
    for rank in (2 * MAX_RANK + 1, 10**12):
        with pytest.raises(ParseError, match=f"^complex: rank {rank} at degree 1 exceeds the size cap of {2 * MAX_RANK}$"):
            certificate_failure(_one_degree_cone(rank))


@pytest.mark.parametrize("spelling", [True, 1.0], ids=["bool", "float"])
def test_an_alpha_entry_that_is_no_string_or_integer_is_refused(spelling):
    # With the cone written in JSON integers, a bool or float equal to 1 in alpha still is no entry.
    payload = _payload(certify_homology_eigenvalue(_circle(ZZ)), CHAIN)
    for item in payload["witness"]["cone"]["diffs"]:
        item["entries"] = [[int(v) for v in row] for row in item["entries"]]
    assert certificate_failure(payload) is None
    for block in payload["witness"]["alpha"]["blocks"]:
        block["entries"] = [[spelling if v == "1" else int(v) for v in row] for row in block["entries"]]
    with pytest.raises(ParseError, match="'entries' must hold strings or JSON integers"):
        certificate_failure(payload)


def test_the_checker_never_multiplies_matrices(genuine, monkeypatch):
    ring, payload = genuine
    tampered = copy.deepcopy(payload)
    _homotopy_entry(ring, tampered)

    def refuse(self, other):
        raise AssertionError("the checker multiplied two matrices")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    assert certificate_failure(payload) is None
    assert "!= -id" in certificate_failure(tampered)


def test_a_line_trace_of_the_checker_enters_only_check_errors_and_rings(genuine):
    ring, payload = genuine
    package = Path(certificate_failure.__code__.co_filename).parent
    entered = set()

    def trace(frame, event, arg):
        path = Path(frame.f_code.co_filename)
        if path.parent == package:
            entered.add(path.name)

    sys.setprofile(trace)
    try:
        certificate_failure(payload)
    finally:
        sys.setprofile(None)
    assert entered <= {"check.py", "errors.py", "rings.py"}, entered


def test_a_product_that_drops_a_term_cannot_slip_a_certificate_past_the_checker(monkeypatch):
    """Every product ``certify`` makes for the 7-vertex torus over Z, with one term dropped.

    ``certify`` checks its own witness with the same ``@``, so a defect
    in ``@`` could build a wrong witness and pass it.  One dropped term
    does not fool that check, so it is switched off here, standing for a
    defect that does; each faulty run then writes what it built.  The
    checker must accept the genuine certificate only, and reject or
    refuse every other.
    """
    f = _torus(ZZ)
    genuine = canonical_dumps(certificate_to_payload(certify_homology_eigenvalue(f), CHAIN))
    monkeypatch.setattr(certify, "verify_homotopy", lambda *args: CheckReport(True))
    product = Matrix.__matmul__
    calls = []

    def drop_one_term(at):
        def matmul(self, other):
            out = product(self, other)
            calls.append(None)
            if len(calls) != at:
                return out
            term = next(
                ((i, k, j) for i, row in enumerate(self.data) for k, x in enumerate(row) if x
                 for j, y in enumerate(other.data[k]) if y),
                None,
            )
            if term is None:
                return out
            i, k, j = term
            rows = [list(row) for row in out.data]
            rows[i][j] = self.ring.reduce(rows[i][j] - self.data[i][k] * other.data[k][j])
            return Matrix._raw(self.ring, out.rows, out.cols, tuple(map(tuple, rows)))

        return matmul

    outcomes = {"genuine": 0, "caught": 0}
    at = 0
    while True:
        at += 1
        calls.clear()
        monkeypatch.setattr(Matrix, "__matmul__", drop_one_term(at))
        try:
            data = canonical_dumps(certificate_to_payload(certify_homology_eigenvalue(f), CHAIN))
        except Exception:  # the faulty kernel refused, or broke, before writing
            data = None
        if len(calls) < at:  # no product left to corrupt
            break
        if data is None:
            continue
        try:
            failure = certificate_failure(json.loads(data))
        except ValidationError:
            failure = "refused"
        if data == genuine:
            assert failure is None
            outcomes["genuine"] += 1
        else:
            assert failure is not None, f"product {at}"
            outcomes["caught"] += 1
    assert outcomes["caught"] > 10 and outcomes["genuine"] > 0, outcomes
