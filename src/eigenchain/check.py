"""An eigenvalue certificate checked from its JSON alone.

A positive certificate claims that ``lambda`` is the (co)homology of
``F``: its witness is a chain map ``alpha: lambda -> F`` and a
homotopy ``psi`` with ``d∘psi + psi∘d = -id`` on the mapping cone of
``alpha``, which makes the cone contractible.  :func:`certificate_failure`
re-checks that, and binds each field of the certificate to it, in this
order; the first check that fails decides:

1. the header: an Eigenvalue verdict with a witness and no failure
   reason, the ring and convention, and alpha's ring, convention and
   ``degree_shift`` 0;
2. the shapes of the cone and of ``psi``, and d∘d = 0 on the cone;
3. the layout adds up to the cone's ranks, and the alpha block of each
   cone differential is ``witness.alpha``;
4. ``lambda_ranks`` are the layout's lambda ranks, and ``alpha_injective``
   says true at each of their degrees and at every degree it lists;
5. ``homology`` lists those ranks as Betti numbers, with no torsion;
6. the rows of each cone differential that land in lambda are zero;
7. ``d∘psi + psi∘d = -id``, degree by degree, by :func:`homotopy_failure`.

:mod:`~eigenchain.certify` checks every witness it builds with that same
:func:`homotopy_failure`, on the rows :func:`integral_rows` reads off its
matrices, so neither side trusts the ``Matrix.@`` that built the witness.

Entries are compared by value: each distinct entry text is parsed once,
so equal text costs one table lookup and a value written another way
(``"2/4"``, or ``"3"`` for 1 over F2) still matches, while a bool or a
float is no entry at all.  A cone rank above twice :data:`MAX_RANK` is
refused before anything is built.  The checker reads entries into sparse
``{column: value}`` rows and computes with plain ``int`` and ``Fraction``,
reduced mod p over F_p.  Of the package it imports only :mod:`errors`
and :mod:`rings`, and takes from :mod:`rings` only the ring a tag names
and the value of an entry's text; so the matrix kernel that builds a
witness has no part in accepting it.

The readers of JSON fields live here too, and :mod:`formats` uses them,
so each rule for a field, and the message for breaking it, is stated once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from math import lcm

from .errors import ParseError, ValidationError
from .rings import ring_from_tag

# The size cap on input: the largest rank a degree of a complex file may
# have, and the largest vertex count and number of simplices per dimension
# of a simplicial file.  The readers refuse more with a ParseError before
# any matrix is built; exact elimination of a dense matrix of this side is
# already far beyond what this kernel finishes, and a rank of, say, 10^9
# would otherwise allocate a 10^9-square identity.  A certificate's cone
# holds lambda_{n+1} and F_n at degree n, so its ranks may reach twice this.
MAX_RANK = 4096


def convention_sign(convention) -> int:
    """+1 for cochain, -1 for chain: the differential's step, which also turns a file degree into an internal one."""
    if convention == "cochain":
        return 1
    if convention == "chain":
        return -1
    raise ParseError(f"bad convention {convention!r}")


def read_header(payload: dict, what: str, convention=None) -> tuple:
    """``payload``'s ring, convention (``convention`` if absent) and sign; a bad ring or convention names ``what``."""
    try:
        ring = ring_from_tag(payload.get("ring"))
        convention = payload.get("convention", convention)
        return ring, convention, convention_sign(convention)
    except ParseError as exc:
        raise ParseError(f"{what}: {exc}") from None


def check_homotopy_shift(payload: dict, convention: str) -> None:
    """Refuse a homotopy whose ``degree_shift`` is not its own, -1 internally; absent means its own."""
    own = -convention_sign(convention)  # -1 internally is +1 in a chain file
    shift = _int_field(payload, "degree_shift", "homotopy", default=own)
    if shift != own:
        raise ParseError(f"homotopy: 'degree_shift' must be {own} in {convention} convention, got {shift}")


def _int_field(item, key: str, what: str, default=None) -> int:
    """``item[key]`` as a JSON integer; ``bool`` and floats are rejected."""
    if type(item) is dict and type(value := item.get(key)) is int:  # the common case, in one step
        return value
    if not isinstance(item, dict):
        raise ParseError(f"{what}: expected an object, got {item!r}")
    if key not in item:
        if default is None:
            raise ParseError(f"{what}: missing {key!r}")
        return default
    raise ParseError(f"{what}: {key!r} must be a JSON integer, got {item[key]!r}")


def _list_field(payload: dict, key: str, what: str):
    """``payload[key]`` as a JSON list; absent means empty."""
    value = payload.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{what}: {key!r} must be a JSON list, got {value!r}")
    return value


def _ranks(payload: dict, sign: int, cap: int) -> dict:
    """A complex's ``degrees`` as ``{internal degree: rank}``; a rank above ``cap`` is a parse error."""

    def rank(item, n, where):
        value = _int_field(item, "rank", where)
        if value < 0:
            raise ValidationError(f"negative rank at degree {sign * n}")
        if value > cap:
            raise ParseError(f"complex: rank {value} at degree {sign * n} exceeds the size cap of {cap}")
        return value

    return _read_list(payload, "degrees", "degree", sign, "complex", rank)


def _object_field(payload: dict, key: str, what: str) -> dict:
    """``payload[key]`` as a JSON object."""
    value = payload.get(key)
    if not isinstance(value, dict):
        problem = f"must be a JSON object, got {value!r}" if key in payload else "is missing"
        raise ParseError(f"{what}: {key!r} {problem}")
    return value


def _read_list(payload: dict, key: str, degree_key: str, sign: int, what: str, read) -> dict:
    """``payload[key]``, a list of objects keyed by ``degree_key``, as ``{internal degree: value}``.

    Each value is ``read(item, n, where)``, with ``where`` naming the
    entry for its errors.  A degree listed twice is a parse error.
    """
    values = {}
    for item in _list_field(payload, key, what):
        user_deg = _int_field(item, degree_key, f"{what} {key} entry")
        n = sign * user_deg
        if n in values:
            raise ParseError(f"{what}: {degree_key!r} {user_deg} appears twice in {key!r}")
        values[n] = read(item, n, f"{what} {key} entry at {degree_key} {user_deg}")
    return values


_ENTRY_TYPES = frozenset((int, str))  # exact types: excludes bool and float
_TEXT = frozenset((str,))


def _entry_values(ring, entries, rows: int, cols: int, what: str, known: dict | None = None) -> dict:
    """The value in ``ring`` of each distinct entry of ``entries``, a ``rows`` x ``cols`` matrix.

    ``known``, when given, holds the values of entries read before; it is
    extended with the new ones and returned.
    """
    if not isinstance(entries, list) or not all(map(isinstance, entries, repeat(list))):
        raise ParseError(f"{what}: entries must be a list of rows")
    if len(entries) != rows or any(map(cols.__ne__, map(len, entries))):
        raise ValidationError(f"{what}: expected a {rows}x{cols} matrix")
    flat = list(chain.from_iterable(entries))
    distinct = dict.fromkeys(flat)
    # A bool or float equal to an int entry hides under the int's key, never
    # under a string's: distinct strings alone mean every entry is a string.
    if not _TEXT.issuperset(map(type, distinct)) and not _ENTRY_TYPES.issuperset(map(type, flat)):
        bad = next(v for v in flat if type(v) not in _ENTRY_TYPES)
        raise ParseError(f"{what}: 'entries' must hold strings or JSON integers, got {bad!r}")
    # Each distinct entry is normalized once, in row-major order of first
    # use, so the first bad entry is the one named; past that, an entry
    # costs one table lookup.  Entries repeat: mostly 0 and ±1.
    value = {} if known is None else known
    new = [text for text in distinct if text not in value]
    try:
        value.update(zip(new, map(ring.normalize, new)))
    except ParseError as exc:
        raise ParseError(f"{what}: {exc}") from None
    return value


def _sparse(ring, entries, rows: int, cols: int, what: str, known: dict) -> list[dict]:
    """``entries`` as one ``{column: nonzero value}`` per row; ``known`` is as for :func:`_entry_values`."""
    value = _entry_values(ring, entries, rows, cols, what, known)
    flat = list(map(value.__getitem__, chain.from_iterable(entries)))
    out = [{} for _ in range(rows)]
    # Cone matrices are mostly zero: only the nonzero entries cost a step here.
    for at in compress(range(rows * cols), flat):
        i, j = divmod(at, cols)
        out[i][j] = flat[at]
    return out


def _nonzero_rows(rows) -> dict:
    """``{index: row}`` for the rows of ``rows`` that have an entry."""
    return {i: row for i, row in enumerate(rows) if row}


def _sum_is_zero(terms: list, rows: int, cols: int, diagonal: int, p: int) -> bool:
    """Whether ``diagonal * id + sum(left @ right for left, right in terms)``, ``rows`` x ``cols``, is zero.

    Each factor is a list of sparse rows; the sum is reduced mod ``p``
    unless ``p`` is 0.  It is built one row at a time in a dense list,
    which a dense witness fills faster than a dict, and the first nonzero
    row ends the check.
    """
    for i in range(rows):
        acc = [0] * cols
        if diagonal:
            acc[i] = diagonal
        for left, right in terms:
            for k, a in left[i].items():
                for j, b in right[k].items():
                    acc[j] += a * b
        if any(map(p.__rmod__, acc) if p else acc):
            return False
    return True


def homotopy_failure(ranks: dict, d: dict, psi: dict, p: int, diagonal: int = 1) -> int | None:
    """The first degree where ``d∘psi + psi∘d != -diagonal * id``, or ``None`` when it holds everywhere.

    ``ranks`` maps each internal (cochain) degree to its rank; ``d[n]``
    (the differential leaving ``n``) and ``psi[n]`` (the homotopy block
    from ``n`` to ``n - 1``) are lists of sparse ``{column: value}`` rows,
    a missing degree standing for zero.  Values are reduced mod ``p``
    unless ``p`` is 0.  With ``d`` and ``psi`` scaled by ``e`` and ``f``
    (see :func:`integral_rows`), a ``diagonal`` of ``e * f`` checks the
    unscaled identity, since both of its sides scale by ``e * f``.
    """
    for n in sorted(ranks):
        terms = [(d[n - 1], psi[n])] if n - 1 in d and n in psi else []
        if n + 1 in psi and n in d:
            terms.append((psi[n + 1], d[n]))
        if not _sum_is_zero(terms, ranks[n], ranks[n], diagonal, p):
            return n
    return None


def integral_rows(blocks: dict) -> tuple[dict, int]:
    """``{degree: (data, cols)}`` tuple-row matrices as ``{degree: sparse rows}`` of ``int``, times one ``den``.

    Returns the rows and ``den``, the lcm of every entry's denominator:
    1, with nothing rescaled, unless some entry is a ``Fraction``.
    """
    den = 1
    if Fraction in set(map(type, chain.from_iterable(chain.from_iterable(data for data, _ in blocks.values())))):
        den = lcm(*(x.denominator for data, _ in blocks.values() for row in data for x in row if type(x) is Fraction))
    out = {}
    for n, (data, cols) in blocks.items():
        at = range(cols)
        if den == 1:  # an all-zero row, common in a cone, is skipped at C speed
            out[n] = [dict(zip(compress(at, row), filter(None, row))) if any(row) else {} for row in data]
        else:
            out[n] = [{j: row[j].numerator * (den // row[j].denominator) for j in compress(at, row)} for row in data]
    return out, den


def certificate_failure(payload) -> str | None:
    """Why ``payload`` is not a certificate that re-checks, or ``None`` when it is.

    A certificate that claims no eigenvalue, or whose claim its witness
    does not bear out, gets a reason.  A payload that is not a JSON
    object, or a field it reads that is missing or mistyped, raises
    :class:`ParseError` naming the field; a matrix of the wrong shape, a
    cone over another ring or convention, or a cone that is not a complex
    raises :class:`ValidationError`.
    """
    if not isinstance(payload, dict):
        raise ParseError("certificate: expected a JSON object")
    if payload.get("verdict") != "Eigenvalue":
        return "the verdict is not Eigenvalue"
    if not payload.get("witness"):
        return "there is no witness"
    if payload.get("failure_reason") is not None:
        return "an Eigenvalue certificate names a failure reason"
    witness = _object_field(payload, "witness", "certificate")
    for key in ("ring", "convention"):
        if key not in payload:
            raise ParseError(f"certificate: {key!r} is missing")

    # 1. The header.
    ring, convention, sign = read_header(payload, "certificate")
    p = payload["ring"]["Fp"] if isinstance(payload["ring"], dict) else 0  # values reduce mod p; 0: no reduction
    alpha = _object_field(witness, "alpha", "certificate witness")
    alpha_ring, alpha_convention, _ = read_header(alpha, "certificate witness alpha", convention)
    if alpha_ring != ring:
        return "alpha's ring differs from the certificate's"
    if alpha_convention != convention:
        return "alpha's convention differs from the certificate's"
    if _int_field(alpha, "degree_shift", "alpha", default=0) != 0:
        return "alpha's degree_shift is not 0"

    # 2. Shapes, and d∘d = 0 on the cone.
    cone = _object_field(witness, "cone", "certificate witness")
    cone_ring, _, cone_sign = read_header(cone, "certificate witness cone")
    if cone_ring != ring:
        raise ValidationError("certificate witness: the cone's ring differs from the certificate's")
    if cone_sign != sign:
        raise ValidationError("certificate witness: the cone's convention differs from the certificate's")

    ranks = _ranks(cone, sign, 2 * MAX_RANK)
    known = {}  # the value of each entry text read so far

    def diff(item, n, where):
        return _sparse(ring, item.get("entries"), ranks.get(n + 1, 0), ranks.get(n, 0), where, known)

    d = _read_list(cone, "diffs", "from_degree", sign, "complex", diff)
    for n in sorted(d):
        if n + 1 in d and not _sum_is_zero([(d[n + 1], d[n])], len(d[n + 1]), ranks.get(n, 0), 0, p):
            raise ValidationError(f"not a complex: d∘d != 0 leaving degree {sign * n}")
    homotopy = _object_field(witness, "homotopy", "certificate witness")
    check_homotopy_shift(homotopy, convention)

    def block(item, n, where):
        return _sparse(ring, item.get("entries"), ranks.get(n - 1, 0), ranks.get(n, 0), where, known)

    psi = _read_list(homotopy, "blocks", "degree", sign, "homotopy", block)

    # 3. The layout, and alpha as the cone's alpha blocks.
    def sizes(item, n, where):
        return tuple(_int_field(item, key, where) for key in ("lambda_rank", "complement_rank", "image_rank"))

    layout = _read_list(cone, "layout", "degree", sign, "complex", sizes)
    for n in sorted(set(layout) | set(ranks)):
        parts = layout.get(n, (0, 0, 0))
        if min(parts) < 0 or sum(parts) != ranks.get(n, 0):
            return f"the cone's layout at degree {sign * n} does not add up to its rank"

    def lam(n):  # the rank of lambda_{n+1}, the scalar part of cone degree n
        return layout[n][0] if n in layout else 0

    given = _read_list(alpha, "blocks", "degree", sign, "alpha", lambda item, n, where: (item.get("entries"), where))
    # alpha_m, from lambda_m to F_m, fills the first lam(m - 1) columns of the
    # cone differential leaving m - 1, in its rows from lam(m) on.  Both sides
    # are compared by their nonzero rows, so nothing is built per rank.
    for m in sorted(set(given) | {n + 1 for n in layout if lam(n)}):
        cols, top = lam(m - 1), lam(m)
        rows = ranks.get(m, 0) - top
        entries, where = given.get(m, (None, None))
        try:
            claimed = {} if entries is None else _nonzero_rows(_sparse(ring, entries, rows, cols, where, known))
        except ValidationError:  # a block of another shape
            claimed = None
        cone_rows = d.get(m - 1, [])[top:]
        if claimed != _nonzero_rows({j: v for j, v in row.items() if j < cols} for row in cone_rows):
            return f"alpha at degree {sign * m} differs from the cone's alpha block"

    # 4. lambda's ranks, and alpha's injectivity on them.
    lam_ranks = {n + 1: lam(n) for n in layout if lam(n)}
    claimed_ranks = _read_list(
        payload, "lambda_ranks", "degree", sign, "certificate", lambda item, n, where: _int_field(item, "rank", where)
    )
    if {n: r for n, r in claimed_ranks.items() if r} != lam_ranks:
        return "lambda_ranks differ from the lambda ranks of the cone's layout"
    injective = _read_list(
        payload, "alpha_injective", "degree", sign, "certificate", lambda item, n, where: item.get("injective")
    )
    if not set(lam_ranks) <= set(injective) or any(flag is not True for flag in injective.values()):
        return "alpha_injective does not say true at every degree of lambda"

    # 5. The homology is lambda: Betti numbers its ranks, no torsion.
    def group(item, n, where):
        return _int_field(item, "betti", where), _list_field(item, "torsion", where)

    homology = _read_list(payload, "homology", "degree", sign, "certificate", group)
    for n in sorted(set(homology) | set(lam_ranks)):
        betti, torsion = homology.get(n, (None, ()))
        if betti != lam_ranks.get(n, 0) or torsion:
            return f"homology at degree {sign * n} is not free of lambda's rank"

    # 6. Nothing lands in lambda.
    for n, rows in d.items():
        if any(rows[: lam(n + 1)]):
            return f"the cone differential leaving degree {sign * n} has a nonzero entry in a lambda row"

    # 7. d∘psi + psi∘d = -id, that is id + d∘psi + psi∘d = 0.
    n = homotopy_failure(ranks, d, psi, p)
    return None if n is None else f"d∘psi + psi∘d != -id at degree {sign * n}"
