"""Exact coefficient rings.

Three rings are supported: the rationals, prime fields F_p, and the
integers.  Values are stored as plain Python objects (``int`` for Z and
for F_p residues in ``[0, p)``; for Q an ``int`` when the value is
integral and a ``Fraction`` otherwise), so all arithmetic is exact and
arbitrary precision, and integral data computes at ``int`` speed in every
ring.  Matrix code operates on these raw values directly with Python's
operators and reduces after accumulating over F_p only; a ring supplies
only coercion (``normalize``), reduction, inversion and the text form of
its values (``parse``, ``render``).  No ring accepts a ``bool``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import NotInvertible, ParseError, ValidationError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base in _MR_WITNESSES
# (Sorenson & Webster 2017); primality is decided only below it.
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    # Miller-Rabin on the bases 2..41, deterministic for n < _MR_BOUND.
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _decimal_text(text: str, kind: str) -> str:
    """``text`` stripped, refused if it holds a ``_`` or a non-ASCII digit: ``int`` and ``Fraction`` take both."""
    t = text.strip()
    if "_" in t or not t.isascii() and any(c.isdecimal() and not c.isascii() for c in t):
        raise ParseError(f"bad {kind} {text!r}: digits must be ASCII 0-9, with no '_'")
    return t


class _UnreducedRing:
    """What Q and Z share: no reduction, ``str`` as the text form, the JSON tag as the name."""

    needs_reduction = False

    def reduce(self, x):
        return x

    render = str

    def __str__(self):
        return self.json_tag


@dataclass(frozen=True)
class Rationals(_UnreducedRing):
    """The field Q; a value is an ``int`` if integral, else a ``Fraction`` in lowest terms.

    Equal values are interchangeable: ``int`` and ``Fraction`` compare,
    hash and render alike and mix exactly in ``+``, ``-`` and ``*``, so the
    same matrix code runs integer arithmetic wherever the data are
    integral.  A matrix product clears each operand's denominators with
    one lcm, multiplies ``int``s and divides each entry once, so it
    returns an ``int`` for every integral entry, and so do eliminations,
    which clear denominators the same way; sums may still leave an
    integral ``Fraction``.  It is a valid value, and
    ``normalize`` turns it into an ``int``.  Never apply ``/`` to two
    values (two ``int``s give a ``float``): invert through :meth:`inv`.
    """

    is_field = True
    json_tag = "Q"

    def normalize(self, x):
        if isinstance(x, bool):
            raise ParseError("booleans are not integers")
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, str):
            return self.parse(x)
        raise ParseError(f"cannot coerce {x!r} into Q")

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)
        if a == 0:
            raise NotInvertible("zero has no inverse in Q")
        return self.normalize(1 / Fraction(a))

    def parse(self, text: str):
        # Fraction expands exponent notation into every digit: "1e9999999" takes seconds.
        if "e" in text or "E" in text:
            raise ParseError(f"bad rational {text!r}: exponent notation is not accepted")
        try:
            return self.normalize(Fraction(_decimal_text(text, "rational")))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {text!r}: {exc}") from None


@dataclass(frozen=True)
class PrimeField:
    """The field F_p; values are ``int`` residues in ``[0, p)``."""

    p: int

    is_field = True
    needs_reduction = True

    def __post_init__(self):
        if self.p >= _MR_BOUND:
            raise ValidationError(f"{self.p} is not below {_MR_BOUND}, the bound under which primality is decided")
        if not _is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")

    def normalize(self, x) -> int:
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, bool):
            raise ParseError("booleans are not integers")
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ParseError(f"cannot coerce non-integer {x} into F_{self.p}")
            x = x.numerator
        if isinstance(x, int):
            return x % self.p
        raise ParseError(f"cannot coerce {x!r} into F_{self.p}")

    def reduce(self, x):
        return x % self.p

    def inv(self, a):
        try:
            return pow(a, -1, self.p)
        except ValueError:
            raise NotInvertible(f"0 has no inverse in F_{self.p}") from None

    def parse(self, text: str) -> int:
        try:
            value = int(_decimal_text(text, "residue"))
        except ValueError as exc:
            raise ParseError(f"bad residue {text!r}: {exc}") from None
        return value % self.p

    def render(self, x) -> str:
        return str(x % self.p)

    @property
    def json_tag(self):
        return {"Fp": self.p}

    def __str__(self):
        return f"F{self.p}"


@dataclass(frozen=True)
class Integers(_UnreducedRing):
    """The ring Z; values are arbitrary-precision ``int``."""

    is_field = False
    json_tag = "Z"

    def normalize(self, x) -> int:
        if isinstance(x, bool):
            raise ParseError("booleans are not integers")
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ParseError(f"cannot coerce non-integer {x} into Z")
            return x.numerator
        if isinstance(x, str):
            return self.parse(x)
        raise ParseError(f"cannot coerce {x!r} into Z")

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotInvertible(f"{a} is not a unit in Z")

    def parse(self, text: str) -> int:
        try:
            return int(_decimal_text(text, "integer"))
        except ValueError as exc:
            raise ParseError(f"bad integer {text!r}: {exc}") from None


Ring = Union[Rationals, PrimeField, Integers]

QQ = Rationals()
ZZ = Integers()


def GF(p: int) -> PrimeField:
    """Prime field of order ``p``."""
    return PrimeField(p)


def ring_from_tag(tag) -> Ring:
    """Inverse of ``ring.json_tag``."""
    if tag == "Q":
        return QQ
    if tag == "Z":
        return ZZ
    if isinstance(tag, dict) and set(tag) == {"Fp"}:
        p = tag["Fp"]
        if isinstance(p, bool) or not isinstance(p, int):
            raise ParseError(f"ring tag: 'Fp' must be a JSON integer, got {p!r}")
        return PrimeField(p)
    raise ParseError(f"unknown ring tag {tag!r}")

