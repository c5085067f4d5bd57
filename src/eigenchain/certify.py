"""Eigenvalue certificates and the homotopy block analyzer.

A certificate records, for a triple (complex F, zero-differential complex
lambda, chain map alpha), whether the mapping cone of alpha is
null-homotopic.  A positive verdict ships the cone with a witness
homotopy on it that re-verifies from scratch; a negative verdict builds
no cone and names the first violated hypothesis per degree.  The verdict
does not depend on the chosen complement: it is negative exactly when
alpha induces no isomorphism on homology, read in F's homology
coordinates.  So a complement-dependent hypothesis failure can never mask
a valid pair; if the cone contracts anyway, the verdict is positive with
the contraction as witness.

One :class:`~eigenchain.decompose.Decomposition` of F per call feeds every
stage: homology ranks and torsion, the canonical pair, the cone layout,
the hypothesis check and the witness.  The canonical pair's check comes
from its construction (every degree injective, no failure, eigenmap
inverse I), so certify factors and solves nothing of alpha; a given
pair's comes from :func:`~eigenchain.cones.check_hypotheses`, which also
solves for the eigenmap inverse that the witness reads.  Either way
:func:`~eigenchain.complexes.verify_homotopy` still checks the witness.
The verdict comes from ranks first: a rank mismatch or a non-injective
eigenmap is read off the factorizations, and a degree of F is split only
for the checks and the witness that need the split.  The cone is
assembled only on a positive verdict, and analyzed, by
:func:`~eigenchain.cones.is_contractible`, only for the contraction
witness of a pair whose hypotheses fail although alpha is an isomorphism
on homology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .complexes import ChainComplex, GradedMap, Homotopy, identity_map, verify_homotopy, zero_map
from .cones import (
    TORSION,
    ConeComplex,
    FailureReason,
    HypothesisCheck,
    _assemble_cone,
    _require_cone_input,
    adapted_block,
    check_hypotheses,
    construct_null_homotopy,
    is_contractible,
)
from .decompose import Decomposition
from .errors import LayoutMismatch, TorsionHomology, ValidationError
from .linalg import complement_basis, image_basis, intersect, spans_equal
from .matrix import Matrix

EIGENVALUE = "Eigenvalue"
NOT_EIGENVALUE = "NotEigenvalue"


@dataclass
class EigenCertificate:
    """Verdict plus either a verified witness or structured failure reasons.

    ``cone`` and ``witness`` are set together, on a positive verdict only;
    a negative verdict is read off ranks and hypotheses and carries neither.
    """

    verdict: str
    ring: object
    lambda_ranks: dict[int, int]
    homology_betti: dict[int, int]
    homology_torsion: dict[int, tuple[int, ...]]
    alpha_injective: dict[int, bool]
    witness: Optional[Homotopy] = None
    cone: Optional[ConeComplex] = None
    failure_reasons: list[FailureReason] = field(default_factory=list)

    @property
    def failure_reason(self) -> Optional[FailureReason]:
        """The first failure reason, or ``None`` on a positive verdict."""
        return self.failure_reasons[0] if self.failure_reasons else None

    def is_eigenvalue(self) -> bool:
        return self.verdict == EIGENVALUE


def _certificate(dec: Decomposition, verdict: str, **fields) -> EigenCertificate:
    """A certificate carrying the ring and the homology that ``dec`` read off F."""
    return EigenCertificate(
        verdict=verdict,
        ring=dec.ring,
        homology_betti={n: dec.betti(n) for n in dec},
        homology_torsion={n: dec.torsion(n) for n in dec if dec.torsion(n)},
        **fields,
    )


def _decide(alpha: GradedMap, dec: Decomposition, check: HypothesisCheck) -> EigenCertificate:
    base = dict(lambda_ranks=dict(alpha.source.ranks), alpha_injective=check.injective)
    # Hypotheses are stated relative to our complement choice; the verdict
    # reads alpha in homology coordinates instead, so it is choice-free.
    if not check.homology_iso:
        return _certificate(dec, NOT_EIGENVALUE, failure_reasons=check.failures, **base)
    # The cone is built for a positive verdict only; only an arbitration analyzes it.
    cone = _assemble_cone(alpha, dec)
    z = cone.underlying
    witness = is_contractible(z)[1] if check.failures else construct_null_homotopy(cone, dec, check)
    report = verify_homotopy(z, zero_map(z, z), identity_map(z), witness)
    if not report.ok:
        raise ValidationError(f"witness failed verification: {report.message}")
    return _certificate(dec, EIGENVALUE, witness=witness, cone=cone, **base)


def decide_eigenvalue(f: ChainComplex, lam: ChainComplex, alpha: GradedMap) -> EigenCertificate:
    """Certify whether (lam, alpha) realizes the homology of ``f``.

    Positive exactly when the cone of ``alpha`` is null-homotopic.  The
    fast path checks the per-degree hypotheses (rank match, injectivity,
    image inside the chosen complement and spanning its cycles) and then
    constructs the explicit witness; if some hypothesis fails, the
    verdict is positive exactly when alpha is still an isomorphism on
    homology, with the cone's contraction as witness.
    """
    if alpha.source != lam or alpha.target != f:
        raise ValidationError("alpha does not map the given scalar object into the given complex")
    _require_cone_input(alpha)
    dec = Decomposition(f)
    return _decide(alpha, dec, check_hypotheses(alpha, dec))


def certify_homology_eigenvalue(f: ChainComplex) -> EigenCertificate:
    """Certify the canonical pair built from the homology of ``f``.

    Positive whenever the required splittings exist; over Z torsion in
    homology makes a free scalar object impossible and yields a negative
    certificate carrying the torsion degrees and invariant factors.
    """
    dec = Decomposition(f)
    try:
        lam, alpha = dec.canonical_alpha()
    except TorsionHomology as exc:
        reason = FailureReason(TORSION, degree=exc.degree, factors=tuple(exc.factors))
        return _certificate(dec, NOT_EIGENVALUE, lambda_ranks={}, alpha_injective={}, failure_reasons=[reason])
    # Each alpha_n is the cycle basis it must hit, so the pair meets every
    # hypothesis by construction and alpha_n x = cycles has the one solution I.
    inverses = {n: Matrix.identity(dec.ring, r) for n, r in lam.ranks.items()}
    check = HypothesisCheck(dict.fromkeys(lam.ranks, True), [], True, inverses)
    return _decide(alpha, dec, check)


@dataclass
class DegreeBlockReport:
    """Extracted homotopy blocks and the identities they must satisfy.

    All booleans are recomputed from exact matrix identities on every call.
    The four ranks split the complement against the eigenmap image:
    cycles/transversal crossed with inside/outside.
    """

    degree: int
    left_inverse_ok: bool  # psi_12 ∘ alpha = -id on the scalar block
    complement_identity_ok: bool  # alpha ∘ psi_12 + psi_23 ∘ delta = -id on the complement
    right_inverse_ok: bool  # delta ∘ psi_23 = -id on the image block
    residual_is_cycle_valued: bool  # delta ∘ (psi_23 + delta_transversal^{-1}) = 0
    rank_cycles_outside_image: int
    rank_transversal_outside_image: int
    rank_cycles_inside_image: int
    rank_transversal_inside_image: int
    image_equals_cycles: bool
    no_cycles_outside_image: bool
    no_transversal_overlap: bool

    def equations_hold(self) -> bool:
        return self.left_inverse_ok and self.complement_identity_ok and self.right_inverse_ok

    def conclusions_hold(self) -> bool:
        return self.image_equals_cycles and self.no_cycles_outside_image and self.no_transversal_overlap


@dataclass
class BlockAnalysis:
    by_degree: dict[int, DegreeBlockReport]

    def all_equations_hold(self) -> bool:
        return all(r.equations_hold() for r in self.by_degree.values())

    def all_conclusions_hold(self) -> bool:
        return all(r.conclusions_hold() for r in self.by_degree.values())


def analyze_homotopy_blocks(cone: ConeComplex, psi: Homotopy, dec: Decomposition) -> BlockAnalysis:
    """Check the blockwise consequences of the homotopy identity.

    Extracts the two off-diagonal blocks of every homotopy degree in the
    cone's layout coordinates, tests the three diagonal-block equations of
    ``d∘psi + psi∘d = -id``, the cycle-valuedness of the residual against
    the canonical right inverse, and the lattice of intersections between
    the eigenmap image and the cycle/transversal split of the complement.
    For any verified null-homotopy the equations hold and the image equals
    the cycles, with both off-split intersections trivial.
    """
    if psi.on != cone.underlying:
        raise LayoutMismatch("homotopy is not attached to this cone")
    alpha = cone.source_alpha
    ring = dec.ring
    bars = {}

    def bar_alpha(n):
        # Alpha's block in complement coordinates, solved once per degree.
        if n not in bars:
            sol = dec.at(n).complement_coords(alpha.block(n))
            if sol is None:
                raise LayoutMismatch(f"eigenmap image leaves the complement block at degree {n}")
            bars[n] = sol
        return bars[n]

    # The two off-diagonal blocks of psi^n in (scalar | complement | image) coordinates.
    psi12 = {}
    psi23 = {}
    for n in set(cone.layout) | {m + 1 for m in cone.layout}:
        ad = adapted_block(cone, dec, psi.block(n), n, n - 1)
        _, g_at, im_at = cone.sizes(n).offsets
        _, tgt_g_at, tgt_im_at = cone.sizes(n - 1).offsets
        psi12[n] = ad.submatrix(range(tgt_g_at), range(g_at, im_at))
        psi23[n] = ad.submatrix(range(tgt_g_at, tgt_im_at), range(im_at, cone.sizes(n).total))

    reports = {}
    for n in sorted(cone.layout):
        part = dec.at(n)
        prev = dec.at(n - 1)
        size = cone.sizes(n)
        delta_prev = prev.restricted_diff
        # Equations on the scalar, complement and image blocks of this cone degree.
        eq1 = psi12[n + 1] @ bar_alpha(n + 1) == -Matrix.identity(ring, size.lambda_rank)
        lhs2 = bar_alpha(n) @ psi12[n] + psi23[n + 1] @ part.restricted_diff
        eq2 = lhs2 == -Matrix.identity(ring, size.complement_rank)
        eq3 = delta_prev @ psi23[n] == -Matrix.identity(ring, size.image_rank)
        # Residual against the canonical right inverse through the transversal.
        residual_ok = not size.image_rank or (delta_prev @ (psi23[n] + prev.right_inverse)).is_zero()
        # Intersection lattice inside the complement.
        im_alpha = image_basis(bar_alpha(n))
        cycles = part.complement_cycles
        transversal = part.complement_transversal
        outside = complement_basis(im_alpha)
        rank_a = intersect(cycles, outside).dim
        rank_b = intersect(transversal, outside).dim
        rank_c = intersect(cycles, im_alpha).dim
        rank_d = intersect(transversal, im_alpha).dim
        reports[n] = DegreeBlockReport(
            degree=n,
            left_inverse_ok=eq1,
            complement_identity_ok=eq2,
            right_inverse_ok=eq3,
            residual_is_cycle_valued=residual_ok,
            rank_cycles_outside_image=rank_a,
            rank_transversal_outside_image=rank_b,
            rank_cycles_inside_image=rank_c,
            rank_transversal_inside_image=rank_d,
            image_equals_cycles=spans_equal(im_alpha, cycles),
            no_cycles_outside_image=rank_a == 0,
            no_transversal_overlap=rank_d == 0,
        )
    return BlockAnalysis(reports)
