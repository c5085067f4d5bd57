"""The per-complex analysis: one factorization per differential, shared by every stage.

A :class:`Decomposition` is built once per public call and passed down.
It validates the complex once and eliminates each differential ``d_n``
exactly once (rref over a field, Smith form over Z); ranks, torsion,
image and kernel bases all read off that one result.

At each degree the module splits as (complement) ⊕ (image of the incoming
differential), and the complement splits further into the cycles it
contains plus a transversal that the differential carries isomorphically
onto the outgoing image.  A degree's split has two levels, each built
the first time it is asked for and kept for the rest of the call: the
first (image, complement, block coordinates) when the degree is indexed,
the second (cycles, transversal, their coordinates and the right
inverse) field by field, when one is read.  So a check that only asks
whether a map lands in the complement eliminates nothing on cycles.
Homology ranks, torsion, canonical cycle representatives, the canonical
eigenmap, the hypothesis checks and the witness homotopy all read off
these pieces.

Over Z the first split exists exactly when the incoming image is a pure
(saturated) submodule, which is also exactly when homology at that degree
is torsion-free.  The analysis records the offending invariant factors of
such a degree as :class:`~eigenchain.errors.NotSaturated` and raises it
only when that degree's split is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .complexes import COCHAIN, ChainComplex, GradedMap, scalar_object, validate_complex
from .errors import ConventionMismatch, NotSaturated, TorsionHomology, ValidationError
from .linalg import RrefResult, SnfResult, SubspaceBasis, complement_and_inverse, factor, smith_normal_form
from .matrix import Matrix


def _require_valid(f: ChainComplex):
    """Raise unless ``f`` is in the cochain presentation and its differentials compose to zero."""
    if f.convention != COCHAIN:
        raise ConventionMismatch("core operations expect the cochain presentation; convert first")
    report = validate_complex(f)
    if not report.ok:
        raise ValidationError(report.message)


@dataclass(frozen=True)
class DegreeDecomposition:
    """The two-level split of one degree.

    The first level is built with the split: ``incoming_image`` and
    ``complement`` in ambient coordinates, and ``to_block_coords``, the
    inverse of ``[complement | incoming_image]``, which converts ambient
    coordinates to block coordinates.  ``outgoing`` is the factorization
    of the differential leaving the degree.

    The second level is built the first time it is read, each field from
    the pieces it needs.  ``restricted_diff`` is the differential
    restricted to the complement, written from complement coordinates to
    the basis of the outgoing image.  ``complement_cycles`` (cycles inside
    the complement) and ``complement_transversal`` live in complement
    coordinates, and ``cycles_in_ambient`` and ``transversal_in_ambient``
    are the same bases in ambient coordinates.  ``to_cycle_coords`` takes
    ambient coordinates to coefficients on ``cycles_in_ambient`` (along
    the transversal and the image), and ``right_inverse`` lifts each
    outgoing image basis vector to the transversal, in complement
    coordinates.
    """

    degree: int
    incoming_image: SubspaceBasis
    complement: SubspaceBasis
    to_block_coords: Matrix
    outgoing: RrefResult | SnfResult = field(repr=False, compare=False)

    def complement_coords(self, vectors: Matrix) -> Optional[Matrix]:
        """Complement coordinates of ``vectors``, or ``None`` if they leave the complement."""
        coords = self.to_block_coords @ vectors
        g = self.complement.dim
        if any(map(any, coords.data[g:])):
            return None
        return coords.submatrix(range(g), range(vectors.cols))

    @cached_property
    def restricted_diff(self) -> Matrix:
        d_n = self.outgoing
        return d_n.image_coords(d_n.matrix @ self.complement.vectors)

    @cached_property
    def _restricted_factored(self) -> RrefResult | SnfResult:
        return factor(self.restricted_diff)

    @cached_property
    def complement_cycles(self) -> SubspaceBasis:
        return self._restricted_factored.kernel()

    @cached_property
    def _cycle_split(self) -> tuple[SubspaceBasis, Matrix]:
        # The transversal, and the inverse of [transversal | cycles].
        return complement_and_inverse(self.complement_cycles)

    @cached_property
    def complement_transversal(self) -> SubspaceBasis:
        return self._cycle_split[0]

    @cached_property
    def cycles_in_ambient(self) -> Matrix:
        return self.complement.vectors @ self.complement_cycles.vectors

    @cached_property
    def transversal_in_ambient(self) -> Matrix:
        return self.complement.vectors @ self.complement_transversal.vectors

    @cached_property
    def to_cycle_coords(self) -> Matrix:
        g, t = self.complement.dim, self.complement_transversal.dim
        to_cycles = self._cycle_split[1].submatrix(range(t, g), range(g))
        return to_cycles @ self.to_block_coords.submatrix(range(g), range(self.complement.ambient_dim))

    @cached_property
    def right_inverse(self) -> Matrix:
        g, t = self.complement.dim, self.complement_transversal.dim
        to_transversal = self._cycle_split[1].submatrix(range(t), range(g))
        # Any preimage of the outgoing basis, projected onto the transversal.
        delta = self.restricted_diff
        lift = to_transversal @ self._restricted_factored.solve(Matrix.identity(delta.ring, delta.rows))
        return self.complement_transversal.vectors @ lift


@dataclass(frozen=True)
class DegreeHomology:
    """Free rank, torsion invariant factors (Z only), and cycle reps."""

    degree: int
    betti: int
    torsion: tuple[int, ...]
    representatives: SubspaceBasis


@dataclass
class HomologyResult:
    by_degree: dict[int, DegreeHomology]

    def betti_numbers(self) -> dict[int, int]:
        return {n: h.betti for n, h in self.by_degree.items() if h.betti}

    def torsion_by_degree(self) -> dict[int, tuple[int, ...]]:
        return {n: h.torsion for n, h in self.by_degree.items() if h.torsion}


class Decomposition:
    """Everything read off one complex, for the length of one call.

    Construction validates ``source`` and factors each differential once.
    Indexing by a supported degree gives its :class:`DegreeDecomposition`;
    :meth:`at` also answers off the support with an empty split.  A degree
    with torsion raises its :class:`NotSaturated` there.
    """

    def __init__(self, source: ChainComplex):
        _require_valid(source)
        self.source = source
        self.ring = source.ring
        self.ranks = dict(source.ranks)
        # factored[n] eliminates the differential leaving degree n.
        self.factored = {n: factor(source.diff(n)) for n in source.degrees()}
        self._parts: dict[int, DegreeDecomposition] = {}

    def __iter__(self):
        return iter(sorted(self.ranks))

    def __getitem__(self, n: int) -> DegreeDecomposition:
        if n not in self.ranks:
            raise KeyError(f"no decomposition at degree {n}")
        return self.at(n)

    def image_rank(self, n: int) -> int:
        """Rank of the image arriving at degree ``n``."""
        return self.factored[n - 1].rank if n - 1 in self.factored else 0

    def torsion(self, n: int) -> tuple[int, ...]:
        """Torsion invariant factors of homology at ``n`` (Z only)."""
        return self.factored[n - 1].torsion if n - 1 in self.factored else ()

    def betti(self, n: int) -> int:
        """Free rank of homology at ``n``; zero off the support."""
        if n not in self.ranks:
            return 0
        return self.ranks[n] - self.factored[n].rank - self.image_rank(n)

    def image(self, n: int) -> SubspaceBasis:
        """Basis of the image arriving at degree ``n``, in ambient coordinates."""
        if n - 1 in self.factored:
            return self.factored[n - 1].image()
        r = self.ranks.get(n, 0)
        return SubspaceBasis(r, Matrix.zeros(self.ring, r, 0))

    def unsaturated(self) -> Optional[NotSaturated]:
        """The lowest degree whose incoming image is not a direct summand, if any."""
        for n in self:
            if self.torsion(n):
                return NotSaturated(self.torsion(n), degree=n)
        return None

    def at(self, n: int) -> DegreeDecomposition:
        part = self._parts.get(n)
        if part is None:
            part = self._parts[n] = self._split(n)
        return part

    def _split(self, n: int) -> DegreeDecomposition:
        if self.torsion(n):
            raise NotSaturated(self.torsion(n), degree=n)
        incoming = self.image(n)
        comp, to_blocks = complement_and_inverse(incoming)
        outgoing = self.factored[n] if n in self.factored else factor(self.source.diff(n))
        return DegreeDecomposition(n, incoming, comp, to_blocks, outgoing)

    def _fallback_representatives(self, n: int) -> SubspaceBasis:
        # Free-part generators of ker/im when the degree carries torsion:
        # write the image generators in kernel coordinates (the lower block
        # of the kernel's split) and read the free summand off the Smith
        # transform of that coordinate matrix.
        ker = self.factored[n].kernel()
        comp, to_blocks = complement_and_inverse(ker)
        split = to_blocks @ self.image(n).vectors
        if any(map(any, split.data[: comp.dim])):
            raise ValidationError(f"image at degree {n} is not contained in the kernel")
        coords = split.submatrix(range(comp.dim, split.rows), range(split.cols))
        snf = smith_normal_form(coords)
        free_cols = snf.u_inv.cols_at(range(snf.rank, ker.dim))
        return SubspaceBasis(self.ranks[n], ker.vectors @ free_cols)

    def homology(self) -> HomologyResult:
        """Exact ranks, torsion, and representative cycles per degree.

        Representatives are the cycles inside the chosen complement whenever
        the degree splits (always over a field); degrees with torsion fall
        back to free-part generators of kernel modulo image.
        """
        out = {}
        for n in self:
            betti = self.betti(n)
            torsion = self.torsion(n)
            if torsion:
                reps = self._fallback_representatives(n)
            else:
                reps = SubspaceBasis(self.ranks[n], self.at(n).cycles_in_ambient)
            if reps.dim != betti:
                raise ValidationError(f"representative count {reps.dim} != rank {betti} at degree {n}")
            out[n] = DegreeHomology(n, betti, torsion, reps)
        return HomologyResult(out)

    def canonical_alpha(self) -> tuple[ChainComplex, GradedMap]:
        """See :func:`canonical_alpha`."""
        bad = self.unsaturated()
        if bad is not None:
            raise TorsionHomology(bad.degree, bad.factors)
        ranks = {}
        blocks = {}
        for n in self:
            part = self.at(n)
            if part.complement_cycles.dim:
                ranks[n] = part.complement_cycles.dim
                blocks[n] = part.cycles_in_ambient
        lam = scalar_object(self.ring, ranks)
        return lam, GradedMap(lam, self.source, 0, blocks)


def decompose(f: ChainComplex) -> Decomposition:
    """Split every supported degree; deterministic bases throughout.

    Raises :class:`NotSaturated` for the lowest degree that has no split.
    """
    dec = Decomposition(f)
    bad = dec.unsaturated()
    if bad is not None:
        raise bad
    return dec


def homology(f: ChainComplex) -> HomologyResult:
    """Exact ranks, torsion, and representative cycles per degree."""
    return Decomposition(f).homology()


def canonical_alpha(f: ChainComplex) -> tuple[ChainComplex, GradedMap]:
    """The canonical eigen pair: homology ranks with representative cycles.

    The scalar object has the homology ranks and zero differentials; the
    map sends each standard generator to the matching representative
    cycle, so its image is exactly the cycles inside the complement.
    Raises :class:`TorsionHomology` over Z when homology has torsion (no
    free scalar object can match it).
    """
    return Decomposition(f).canonical_alpha()
