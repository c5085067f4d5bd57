"""Mapping cones, explicit null-homotopies, and contractibility.

The cone of a map ``alpha`` from a zero-differential complex into ``F``
has degree-``n`` term ``lambda_{n+1} ⊕ F_n`` and the unsigned block
differential ``(a, x) -> (0, alpha(a) + d(x))``.  Its null-homotopies are
:class:`~eigenchain.complexes.Homotopy` objects, checked by
:func:`~eigenchain.complexes.verify_homotopy` in the library and by
:func:`~eigenchain.check.homotopy_failure` in :mod:`~eigenchain.certify`;
:mod:`eigenchain.complexes` states their sign convention.

Every stage here reads the one :class:`~eigenchain.decompose.Decomposition`
of the target complex that its caller built: the cone's block layout
(laid out from that analysis's image ranks when the cone is built;
:func:`mapping_cone` builds the analysis itself), the single
hypothesis checker :func:`check_hypotheses`, the witness, and
:func:`adapted_block`, the change to (scalar | complement | image) block
coordinates.  The checker also reads whether ``alpha`` is an isomorphism
on homology, in the homology coordinates of that analysis, which decides
whether the cone contracts without analyzing the cone;
:func:`is_contractible` analyzes a complex of its own.  The checker is
the one place that solves for the eigenmap's inverse on cycles; the
witness reads that solution.  The canonical pair's
:class:`HypothesisCheck` comes from its construction instead, while
:mod:`~eigenchain.certify` still checks its witness.  Both witnesses share
one contraction formula, :func:`_contraction_block`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# verify_homotopy is re-exported here, where the benchmark's tracer names it.
from .complexes import COCHAIN, ChainComplex, GradedMap, Homotopy, validate_chain_map, verify_homotopy
from .decompose import Decomposition
from .errors import HypothesisFailure, NotScalarSource, ValidationError
from .linalg import factor
from .matrix import Matrix, block_diag, hstack, vstack

RANK_MISMATCH = "RankMismatch"
TORSION = "Torsion"
ALPHA_NOT_INJECTIVE = "AlphaNotInjective"
ALPHA_NOT_INTO_G = "AlphaNotIntoG"
ALPHA_NOT_SURJECTIVE = "AlphaNotSurjective"
NOT_SATURATED = "NotSaturated"


@dataclass(frozen=True)
class FailureReason:
    kind: str
    degree: int
    factors: tuple[int, ...] = ()


@dataclass(frozen=True)
class ConeLayout:
    """Block sizes of one cone degree: scalar part, complement, image."""

    lambda_rank: int
    complement_rank: int
    image_rank: int

    @property
    def offsets(self) -> tuple[int, int, int]:
        return (0, self.lambda_rank, self.lambda_rank + self.complement_rank)

    @property
    def total(self) -> int:
        return self.lambda_rank + self.complement_rank + self.image_rank


@dataclass
class ConeComplex:
    """A mapping cone with its per-degree block layout."""

    underlying: ChainComplex
    source_alpha: GradedMap
    layout: dict[int, ConeLayout]

    def sizes(self, n: int) -> ConeLayout:
        """The layout at cone degree ``n``, all zero off the cone's support."""
        return self.layout.get(n, ConeLayout(0, 0, 0))


def _require_cone_input(alpha: GradedMap):
    lam, f = alpha.source, alpha.target
    if lam.convention != COCHAIN or f.convention != COCHAIN:
        raise ValidationError("mapping cone expects cochain presentation")
    if not lam.is_scalar():
        raise NotScalarSource("cone source must have zero differentials")
    if alpha.degree_shift != 0:
        raise ValidationError("cone expects a degree-0 chain map")
    check = validate_chain_map(alpha)
    if not check.ok:
        raise ValidationError(f"not a chain map: {check.message}")


def _assemble_cone(alpha: GradedMap, dec: Decomposition) -> ConeComplex:
    """The cone of a checked ``alpha``, laid out from ``dec``, the analysis of its (valid) target.

    The cone keeps only the image ranks of ``dec``, in its layout, not
    ``dec`` itself, so a certificate holding the cone does not hold the
    analysis.  A chain map into a complex has a cone that is again a
    complex, so the result needs no check of its own.
    """
    lam, f = alpha.source, alpha.target
    ring = f.ring
    degrees = sorted({n for n in f.ranks} | {n - 1 for n in lam.ranks})
    ranks = {n: lam.rank(n + 1) + f.rank(n) for n in degrees}
    layout, diffs = {}, {}
    for n in degrees:
        image = dec.image_rank(n)
        layout[n] = ConeLayout(lam.rank(n + 1), f.rank(n) - image, image)
        if lam.rank(n + 2) + f.rank(n + 1) == 0:
            continue
        top = Matrix.zeros(ring, lam.rank(n + 2), ranks[n])
        bottom = hstack([alpha.block(n + 1), f.diff(n)])
        diffs[n] = vstack([top, bottom])
    return ConeComplex(ChainComplex(ring, COCHAIN, ranks, diffs), alpha, layout)


def mapping_cone(alpha: GradedMap) -> ConeComplex:
    """Cone of a chain map whose source has zero differentials.

    It analyzes the target once, for the cone's layout, so a target that
    is not a complex is refused here.
    """
    _require_cone_input(alpha)
    return _assemble_cone(alpha, Decomposition(alpha.target))


def adapted_block(cone: ConeComplex, dec: Decomposition, m: Matrix, src: int, tgt: int) -> Matrix:
    """``m``, from cone degree ``src`` to ``tgt``, in (scalar | complement | image) coordinates.

    For a valid cone its differential at ``n`` becomes
    ``[[0,0,0],[alpha,0,0],[0,delta,0]]`` in these blocks.
    """
    ring = dec.ring
    src_part = dec.at(src)
    src_change = block_diag([
        Matrix.identity(ring, cone.sizes(src).lambda_rank),
        hstack([src_part.complement.vectors, src_part.incoming_image.vectors]),
    ])
    tgt_change_inv = block_diag([Matrix.identity(ring, cone.sizes(tgt).lambda_rank), dec.at(tgt).to_block_coords])
    return tgt_change_inv @ m @ src_change


@dataclass(frozen=True)
class HypothesisCheck:
    """The per-degree conditions under which the explicit null-homotopy exists.

    ``injective`` covers every degree of the scalar object.  ``failures``
    holds the first violated hypothesis per degree, ascending; a complex
    with torsion yields the single NotSaturated failure of its lowest such
    degree.  ``homology_iso`` says whether ``alpha`` induces an
    isomorphism on homology, which for bounded free complexes is exactly
    when its cone contracts.  ``alpha_inverse`` holds the solution of
    ``alpha_n x = cycles``, the eigenmap's inverse on cycles that the
    witness reads: over a field at every degree once all hypotheses hold
    and nowhere otherwise, over Z at each degree that passed every check
    even when another failed.  A check built from the canonical pair's
    construction factors nothing and holds I at every degree.
    """

    injective: dict[int, bool]
    failures: list[FailureReason]
    homology_iso: bool
    alpha_inverse: dict[int, Matrix]


def check_hypotheses(alpha: GradedMap, dec: Decomposition) -> HypothesisCheck:
    """Check the hypotheses of the explicit null-homotopy of ``alpha``'s cone.

    Per degree: the scalar rank matches the homology rank, the map is
    injective, lands in the chosen complement, and hits every cycle in it.
    Over a field the last is automatic once the others hold: a chain map
    from ``lambda`` lands in cycles, so an injective ``alpha`` into the
    complement spans its cycles, whose dimension is the homology rank.
    Over Z it is a genuine extra condition, and the check solves for it
    degree by degree.  Over a field it solves every degree once, after
    the checks and only when none failed, since only that verdict's
    witness reads the solution.  Each block of ``alpha`` is factored
    once, for its injectivity and its solve.

    Every failure but AlphaNotIntoG already shows that ``alpha`` is no
    isomorphism on homology: ranks differ, a kernel vector maps to class
    zero, ``alpha`` is cycles times a non-unimodular matrix, or homology
    has torsion that a free ``lambda`` cannot match.  A cycle is a
    complement cycle plus a boundary, so at an AlphaNotIntoG degree
    ``to_cycle_coords @ alpha`` is the square matrix of ``alpha`` on
    homology, an isomorphism exactly when it is invertible.
    """
    lam, f = alpha.source, alpha.target
    factored = {n: factor(alpha.block(n)) for n in lam.degrees()}
    injective = {n: a_n.rank == a_n.matrix.cols for n, a_n in factored.items()}
    bad = dec.unsaturated()
    if bad is not None:
        failure = FailureReason(NOT_SATURATED, degree=bad.degree, factors=tuple(bad.factors))
        return HypothesisCheck(injective, [failure], False, {})
    failures = []
    inverses = {}
    for n in sorted(set(lam.ranks) | set(f.ranks)):
        # Without torsion the Betti number is the rank of the complement's
        # cycles, so the degree's split is built only for the checks below.
        if lam.rank(n) != dec.betti(n):
            failures.append(FailureReason(RANK_MISMATCH, degree=n))
        elif n not in factored:
            continue
        elif not injective[n]:
            failures.append(FailureReason(ALPHA_NOT_INJECTIVE, degree=n))
        elif (part := dec.at(n)).complement_coords(alpha.block(n)) is None:
            failures.append(FailureReason(ALPHA_NOT_INTO_G, degree=n))
        elif not dec.ring.is_field:
            inverse = factored[n].solve(part.cycles_in_ambient)
            if inverse is None:
                failures.append(FailureReason(ALPHA_NOT_SURJECTIVE, degree=n))
            else:
                inverses[n] = inverse
    if dec.ring.is_field and not failures:
        inverses = {n: a_n.solve(dec.at(n).cycles_in_ambient) for n, a_n in factored.items()}
    on_homology = (factor(dec.at(r.degree).to_cycle_coords @ alpha.block(r.degree)) for r in failures)
    iso = all(r.kind == ALPHA_NOT_INTO_G for r in failures) and all(
        h.rank == h.matrix.cols and not h.torsion for h in on_homology
    )
    return HypothesisCheck(injective, failures, iso, inverses)


def _contraction_block(dec: Decomposition, n: int) -> Matrix:
    """The ``F_n -> F_{n-1}`` block of the witness, zero where no image arrives at ``n``.

    It lifts image coordinates at ``n`` to the transversal at ``n - 1`` and negates them.
    """
    f_src = dec.source.rank(n)
    if not dec.image_rank(n):
        return Matrix.zeros(dec.ring, dec.source.rank(n - 1), f_src)
    part, prev = dec.at(n), dec.at(n - 1)
    image_coords = part.to_block_coords.submatrix(range(part.complement.dim, f_src), range(f_src))
    return -(prev.complement.vectors @ (prev.right_inverse @ image_coords))


def construct_null_homotopy(
    cone: ConeComplex, dec: Decomposition, check: Optional[HypothesisCheck] = None
) -> Homotopy:
    """Build the explicit null-homotopy of a cone from the decomposition.

    On the complement the witness inverts the eigenmap on cycles and kills
    the transversal; on the image it inverts the restricted differential
    back through the transversal (:func:`_contraction_block`).  Both
    inverses are read off the decomposition and ``check`` (run here when
    not given), the eigenmap's from ``check.alpha_inverse``, so the
    witness eliminates and solves nothing of ``alpha``; a failed
    hypothesis raises :class:`HypothesisFailure`.
    """
    alpha = cone.source_alpha
    if check is None:
        check = check_hypotheses(alpha, dec)
    if check.failures:
        first = check.failures[0]
        raise HypothesisFailure(first.kind, degree=first.degree)
    lam, f = alpha.source, alpha.target
    z = cone.underlying
    ring = z.ring
    blocks = {}
    for n in z.degrees():
        if z.rank(n - 1) == 0:
            continue
        lam_tgt, f_src = lam.rank(n), f.rank(n)
        # Scalar-part output: invert the eigenmap on the cycle component.
        if lam_tgt and f_src:
            top = -(check.alpha_inverse[n] @ dec.at(n).to_cycle_coords)
        else:
            top = Matrix.zeros(ring, lam_tgt, f_src)
        zeros = Matrix.zeros(ring, z.rank(n - 1), lam.rank(n + 1))
        blocks[n] = hstack([zeros, vstack([top, _contraction_block(dec, n)])])
    return Homotopy(z, blocks)


def is_contractible(x: ChainComplex) -> tuple[bool, Optional[Homotopy]]:
    """Decide null-homotopy existence and produce a witness when it exists.

    For bounded complexes of free modules this holds exactly when all
    homology vanishes (including torsion over Z).  One exact analysis of
    ``x`` serves both the decision, read off its Betti numbers and
    torsion, and the witness, whose every block is the
    :func:`_contraction_block` of that analysis.
    """
    dec = Decomposition(x)
    if any(dec.betti(n) or dec.torsion(n) for n in dec):
        return False, None
    return True, Homotopy(x, {n: _contraction_block(dec, n) for n in dec})
