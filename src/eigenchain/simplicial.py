"""Simplicial complexes and their boundary matrices.

Facets are closed under subsets into a plain ``{dimension: simplices}``
dict: each simplex is a tuple of sorted vertex indices, each list is
sorted, and a simplex's place in its list is its basis position in the
chain complex.  The boundary of a simplex alternates signs over deleted
vertices.  That orientation convention is a choice made here: it
reproduces the expected homology of the bundled examples.  A boundary
matrix is filled in one pass with the ring's canonical 0, 1 and -1
(``p - 1`` over F_p, an ``int`` over Q), normalized once per call rather
than once per entry.  Vertex labels, when given, only count the
vertices; simplices are named by index.  Only a vertex of some facet is
a simplex: three vertices with the one facet ``[0, 1]`` give ``H_0 = Z``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .complexes import CHAIN, MAX_RANK, ChainComplex
from .errors import BadIndex, ParseError, ValidationError
from .matrix import Matrix
from .rings import Ring


def close_simplicial(vertices, facets) -> dict[int, list[tuple[int, ...]]]:
    """Validate input and close the facet list under subsets: ``{dimension: sorted simplices}``.

    ``vertices`` (a count or a label list) bounds the indices; a vertex
    in no facet is in no dimension of the result.  A vertex index that
    is not an integer raises :class:`ParseError`, and an integer outside
    ``0..count-1`` raises :class:`BadIndex`.  Input past the size cap
    :data:`~eigenchain.complexes.MAX_RANK` raises :class:`ParseError`
    before its closure grows: more vertices, a facet whose own closure
    has more faces of one dimension, or more simplices of one dimension
    in all.
    """
    count = vertices if isinstance(vertices, int) else len(vertices)
    if count < 0:
        raise ValidationError("negative vertex count")
    if count > MAX_RANK:
        raise ParseError(f"{count} vertices exceed the size cap of {MAX_RANK}")
    seen: dict[int, set[tuple[int, ...]]] = {}
    for facet in facets:
        if not facet:
            raise ValidationError("empty facet")
        idx = []
        for v in facet:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"vertex index must be a JSON integer, got {v!r}")
            if not 0 <= v < count:
                raise BadIndex(f"vertex index {v!r} outside 0..{count - 1}")
            idx.append(v)
        if len(set(idx)) != len(idx):
            raise ValidationError(f"facet {facet} repeats a vertex")
        if comb(len(idx), len(idx) // 2) > MAX_RANK:
            raise ParseError(f"facet of {len(idx)} vertices: its faces exceed the size cap of {MAX_RANK}")
        simplex = tuple(sorted(idx))
        for size in range(1, len(simplex) + 1):
            faces = seen.setdefault(size - 1, set())
            faces.update(combinations(simplex, size))
            if len(faces) > MAX_RANK:
                raise ParseError(f"simplices of dimension {size - 1} exceed the size cap of {MAX_RANK}")
    return {k: sorted(faces) for k, faces in seen.items()}


def simplicial_to_chain(vertices, facets, ring: Ring) -> tuple[ChainComplex, dict[int, list[tuple[int, ...]]]]:
    """Chain-convention complex of a simplicial complex over ``ring``, and its simplices by dimension."""
    simplices = close_simplicial(vertices, facets)
    ranks = {k: len(simps) for k, simps in simplices.items()}
    zero, signs = ring.normalize(0), (ring.normalize(1), ring.normalize(-1))
    diffs = {}
    for k in range(1, len(simplices)):
        faces, simps = simplices[k - 1], simplices[k]
        index = {s: i for i, s in enumerate(faces)}
        grid = [[zero] * len(simps) for _ in faces]
        for j, simplex in enumerate(simps):
            for i in range(len(simplex)):
                grid[index[simplex[:i] + simplex[i + 1 :]]][j] = signs[i % 2]
        diffs[k] = Matrix._raw(ring, len(faces), len(simps), tuple(map(tuple, grid)))
    return ChainComplex(ring, CHAIN, ranks, diffs), simplices
