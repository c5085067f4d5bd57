"""The three rings: inverses, text round trips, validation and parse errors."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eigenchain import GF, QQ, ZZ, PrimeField, ring_from_tag
from eigenchain.errors import NotInvertible, ParseError, ValidationError

F7 = GF(7)


def test_fraction_addition():
    assert QQ.parse("1/2") + QQ.parse("1/3") == QQ.parse("5/6")
    assert [QQ.parse(t) for t in ("-3", " 4/2 ", "1.5")] == [-3, 2, Fraction(3, 2)]


def test_inverse_in_f7_matches_brute_force():
    # Oracle: the unique k in 0..6 with 3*k = 1 mod 7.
    expected = next(k for k in range(7) if (3 * k) % 7 == 1)
    assert expected == 5
    assert F7.inv(3) == expected


def test_integer_two_is_not_a_unit():
    with pytest.raises(NotInvertible):
        ZZ.inv(2)
    assert ZZ.inv(-1) == -1


def test_zero_has_no_inverse_in_a_field():
    with pytest.raises(NotInvertible):
        QQ.inv(Fraction(0))
    with pytest.raises(NotInvertible):
        F7.inv(0)


def test_prime_validation():
    with pytest.raises(ValidationError):
        GF(6)
    for p in (2, 3, 97, 101):
        assert PrimeField(p).p == p


def test_parse_rejects_garbage():
    for bad in ("1/0", "1e9999999", "1E-9999999"):
        with pytest.raises(ParseError, match=repr(bad)):
            QQ.parse(bad)
    with pytest.raises(ParseError):
        ZZ.parse("two")
    with pytest.raises(ParseError):
        F7.parse("x")
    with pytest.raises(ParseError):
        ZZ.normalize(Fraction(1, 2))


@pytest.mark.parametrize("ring", [QQ, ZZ, F7])
def test_json_tag_round_trips(ring):
    assert ring_from_tag(ring.json_tag) == ring


# The least strong pseudoprimes to the bases 2..37 and 2..41.
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


@pytest.mark.parametrize("n", [PSI_12, PSI_13], ids=["psi12", "psi13"])
def test_strong_pseudoprimes_are_not_fields(n):
    with pytest.raises(ValidationError):
        GF(n)
    with pytest.raises(ValidationError):
        ring_from_tag({"Fp": n})


def test_moduli_past_the_decided_range_are_refused_naming_the_bound():
    with pytest.raises(ValidationError, match=f"not below {PSI_13}"):
        GF(PSI_13 + 2)
    assert GF(2**61 - 1).p == 2**61 - 1
    assert ring_from_tag({"Fp": 2**61 - 1}) == GF(2**61 - 1)


@pytest.mark.parametrize("tag", ["R", {"Fp": "7"}, {"Fp": 7.0}, {"Fp": True}, {"Fp": 7, "x": 1}, None])
def test_bad_ring_tags_are_parse_errors(tag):
    with pytest.raises(ParseError):
        ring_from_tag(tag)


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
residues = st.integers(min_value=-50, max_value=50)
ints = st.integers(min_value=-(10**9), max_value=10**9)


@given(rationals)
def test_rational_render_parse_round_trip(a):
    x = QQ.normalize(a)
    assert QQ.parse(QQ.render(x)) == x
    if x:
        assert x * QQ.inv(x) == 1


@given(ints)
def test_integer_render_parse_round_trip(a):
    x = ZZ.normalize(a)
    assert ZZ.parse(ZZ.render(x)) == x


@given(residues)
def test_residue_render_parse_round_trip(a):
    x = F7.normalize(a)
    assert 0 <= x < 7
    assert F7.parse(F7.render(x)) == x
    if x:
        assert F7.reduce(x * F7.inv(x)) == 1
