"""Scalar text is ASCII decimal: a ``_`` or another script's digits is a parse error on every ring.

Python's ``int`` and ``Fraction`` read ``"1_000"`` as 1000 and Arabic-Indic
``"١٢"`` as 12, so each ring refuses such text before either sees it.
Text without them keeps the ring's own message, Python's wording included.
"""

import json

import pytest

from eigenchain import GF, QQ, ZZ
from eigenchain.cli import main
from eigenchain.errors import ParseError
from eigenchain.formats import complex_from_payload

RINGS = [(ZZ, "integer"), (QQ, "rational"), (GF(5), "residue")]
REFUSED = ["1_000", "-1_0", "١٢", " ١ ", "1٢", "１２", "1_0/2", "1/2_0"]


@pytest.mark.parametrize("ring, kind", RINGS, ids=str)
@pytest.mark.parametrize("text", REFUSED)
def test_underscores_and_non_ascii_digits_are_refused(ring, kind, text):
    with pytest.raises(ParseError) as info:
        ring.parse(text)
    assert str(info.value) == f"bad {kind} {text!r}: digits must be ASCII 0-9, with no '_'"


@pytest.mark.parametrize("ring, kind", RINGS, ids=str)
def test_ascii_decimal_text_still_parses(ring, kind):
    assert ring.parse(" 12 ") == ring.normalize(12)
    assert ring.parse("-7") == ring.normalize(-7)
    assert ring.parse("+10") == ring.normalize(10)


@pytest.mark.parametrize("ring, kind", RINGS, ids=str)
def test_other_non_ascii_text_keeps_the_library_message(ring, kind):
    # A superscript two is a digit to str.isdigit but not a decimal digit: int refuses it itself.
    with pytest.raises(ParseError) as info:
        ring.parse("²")
    assert "digits must be ASCII" not in str(info.value)
    assert str(info.value).startswith(f"bad {kind} '²': ")


def test_exponent_notation_is_named_first():
    with pytest.raises(ParseError) as info:
        QQ.parse("1_0e5")
    assert str(info.value) == "bad rational '1_0e5': exponent notation is not accepted"


def _circle_file(ring_tag, entry):
    return {
        "ring": ring_tag,
        "convention": "chain",
        "degrees": [{"degree": 0, "rank": 1}, {"degree": 1, "rank": 1}],
        "diffs": [{"from_degree": 1, "entries": [[entry]]}],
    }


@pytest.mark.parametrize(
    "ring_tag, kind", [("Z", "integer"), ("Q", "rational"), ({"Fp": 5}, "residue")], ids=["Z", "Q", "F5"]
)
def test_a_complex_file_names_the_entry(ring_tag, kind):
    with pytest.raises(ParseError) as info:
        complex_from_payload(_circle_file(ring_tag, "1_000"))
    assert str(info.value) == (
        f"complex diffs entry at from_degree 1: bad {kind} '1_000': digits must be ASCII 0-9, with no '_'"
    )


@pytest.mark.parametrize("entry", ["1_000", "١٢"])
def test_cli_exits_2_on_such_an_entry(tmp_path, capsys, entry):
    path = tmp_path / "bad_digits.json"
    path.write_text(json.dumps(_circle_file("Z", entry)), encoding="utf-8")
    assert main(["homology", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "digits must be ASCII 0-9, with no '_'" in captured.err
