"""Matrix entries of complex and certificate files: values, and the error for the first bad one.

A bad entry is a ``ParseError`` that names the matrix (its degree) and the
first bad entry in row-major order, with the ring's own message for it.
"""

import json
from fractions import Fraction

import pytest

from eigenchain import GF, QQ, ZZ
from eigenchain.certify import certify_homology_eigenvalue
from eigenchain.errors import ParseError
from eigenchain.formats import canonical_dumps, certificate_to_payload, complex_from_payload, reverify_certificate
from conftest import circle_complex


def _library_message(convert, text):
    """The message ``convert(text)`` fails with, as this Python words it."""
    try:
        convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        return str(exc)
    raise AssertionError(f"{text!r} converted")


def _bad(kind, convert, text):
    return f"bad {kind} {text!r}: {_library_message(convert, text)}"


def two_by_two(ring_tag, entries):
    """A chain complex file, rank 2 in degrees 0 and 1, with ``entries`` as d_1."""
    return {
        "ring": ring_tag,
        "convention": "chain",
        "degrees": [{"degree": 0, "rank": 2}, {"degree": 1, "rank": 2}],
        "diffs": [{"from_degree": 1, "entries": entries}],
    }


def d1(ring_tag, entries):
    return complex_from_payload(two_by_two(ring_tag, entries)).complex.diff(-1)


WHERE = "complex diffs entry at from_degree 1: "


@pytest.mark.parametrize(
    "ring_tag, entries, expected",
    [
        ("Z", [[1, "x"], [0, 0]], _bad("integer", int, "x")),
        ("Z", [["1.5", 0], [0, 0]], _bad("integer", int, "1.5")),
        ("Q", [[0, 0], ["1/0", 0]], _bad("rational", Fraction, "1/0")),
        ({"Fp": 3}, [[0, 0], [0, "x"]], _bad("residue", int, "x")),
        # Two bad entries: the first in row-major order is named, not the first column's.
        ("Z", [[0, "b"], ["a", 0]], _bad("integer", int, "b")),
        ("Q", [["y", 0], [0, "z"]], _bad("rational", Fraction, "y")),
        # A bad entry after a good one that repeats later.
        ("Z", [["7", "x"], ["7", "y"]], _bad("integer", int, "x")),
    ],
    ids=["x-over-Z", "1.5-over-Z", "1/0-over-Q", "x-over-F3", "two-bad-Z", "two-bad-Q", "repeat-then-bad"],
)
def test_bad_entry_names_the_degree_and_first_bad_entry(ring_tag, entries, expected):
    with pytest.raises(ParseError) as info:
        complex_from_payload(two_by_two(ring_tag, entries))
    assert str(info.value) == WHERE + expected


def test_entry_of_another_json_type_is_named():
    # An object or a list is unhashable: it is refused as a float is, before any lookup.
    for entries, bad in (([[0, 1.5], [True, 0]], "1.5"), ([["0", {}], ["1", "0"]], "{}"), ([[0, 1], [[1], 0]], "[1]")):
        with pytest.raises(ParseError) as info:
            complex_from_payload(two_by_two("Z", entries))
        assert str(info.value) == WHERE + "'entries' must hold strings or JSON integers, got " + bad


def test_mixed_ints_strings_and_spaces_parse_to_the_same_values():
    m = d1("Z", [[1, "1"], [" 2 ", 2]])
    assert m.data == ((1, 1), (2, 2))
    assert all(type(v) is int for row in m.data for v in row)
    q = d1("Q", [[1, "1"], [" 1/2 ", "2/4"]])
    assert q.data == ((1, 1), (Fraction(1, 2), Fraction(1, 2)))
    # A parsed Q entry is an int exactly when it is integral, else a Fraction.
    assert all(type(v) is (int if v.denominator == 1 else Fraction) for row in q.data for v in row)
    whole = d1("Q", [[" 4/2 ", "-6/3"], ["2/1", 0]])
    assert whole.data == ((2, -2), (2, 0))
    assert all(type(v) is int for row in whole.data for v in row)
    assert q.ring == QQ


def test_residues_come_back_reduced():
    # d_0 is zero on a complex with one differential, so any 2x2 is a complex.
    m = d1({"Fp": 3}, [[4, "-1"], [" 5 ", -7]])
    assert m.ring == GF(3)
    assert m.data == ((1, 2), (2, 2))
    m = d1({"Fp": 2}, [["3", 2], [-1, "10"]])
    assert m.data == ((1, 0), (1, 0))


def test_large_integers_keep_every_digit():
    big = 10**40 + 1
    m = d1("Z", [[big, str(-big)], [0, " 0 "]])
    assert m.data == ((big, -big), (0, 0))
    assert m.ring == ZZ


@pytest.fixture
def certificate():
    cert = certify_homology_eigenvalue(circle_complex())
    return json.loads(canonical_dumps(certificate_to_payload(cert, "chain")))


@pytest.mark.parametrize("bad", ["x", "1.5"])
def test_bad_homotopy_entry_in_a_certificate(certificate, bad):
    block = certificate["witness"]["homotopy"]["blocks"][0]
    block["entries"][0][-1] = bad
    with pytest.raises(ParseError) as info:
        reverify_certificate(certificate)
    where = f"homotopy blocks entry at degree {block['degree']}: "
    assert str(info.value) == where + _bad("integer", int, bad)


def test_bad_cone_entry_in_a_certificate(certificate):
    diff = certificate["witness"]["cone"]["diffs"][0]
    diff["entries"][0][-1] = "x"
    diff["entries"][-1][0] = "y"
    with pytest.raises(ParseError) as info:
        reverify_certificate(certificate)
    where = f"complex diffs entry at from_degree {diff['from_degree']}: "
    assert str(info.value) == where + _bad("integer", int, "x")


def test_certificate_with_string_and_integer_entries_still_verifies(certificate):
    for block in certificate["witness"]["homotopy"]["blocks"]:
        block["entries"] = [[int(v) if i % 2 else f" {v} " for i, v in enumerate(row)] for row in block["entries"]]
    assert reverify_certificate(certificate)
