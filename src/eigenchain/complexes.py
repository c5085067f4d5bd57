"""Bounded complexes of free modules, degree-homogeneous maps, and their exact checks.

The internal convention is cochain: the differential at degree ``n`` maps
the rank-``r_n`` module to the rank-``r_{n+1}`` module.  Chain-convention
data (differentials lowering degree) is converted on ingestion by
negating degrees, which turns lowering into raising without touching any
matrix; rendering converts back the same way.

The exact checks of a complex, a chain map and a homotopy live here and
report a :class:`CheckReport`.  A null-homotopy is a :class:`Homotopy`,
the degree-(-1) map ``psi`` of one complex certified against
``d∘psi + psi∘d = -id``, i.e. a homotopy from the zero map to the
identity; that sign convention is fixed so the witnesses built in
:mod:`~eigenchain.cones` match the decomposition blocks literally, and
:func:`verify_homotopy` takes ``f`` and ``g`` explicitly so the opposite
convention remains expressible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .check import MAX_RANK, convention_sign  # the readers' size cap and sign, kept where the checker reads them
from .errors import ConventionMismatch, RingMismatch, ValidationError
from .matrix import Matrix, hstack, vstack
from .rings import Ring

COCHAIN = "cochain"
CHAIN = "chain"


def _nonzero_blocks(blocks: dict, source: ChainComplex, target: ChainComplex, shift: int, what: str) -> dict:
    """``blocks`` without its zero matrices, each checked as a map of degree ``shift``.

    The matrix at degree ``n`` must live over the source's ring and map the
    source's degree-``n`` module to the target's degree ``n + shift`` module.
    """
    kept = {}
    for n, m in blocks.items():
        if m.ring != source.ring:
            raise RingMismatch(f"{what} at degree {n} lives over {m.ring}")
        rows, cols = target.rank(n + shift), source.rank(n)
        if (m.rows, m.cols) != (rows, cols):
            raise ValidationError(f"{what} at degree {n} is {m.rows}x{m.cols}, expected {rows}x{cols}")
        if not m.is_zero():
            kept[n] = m
    return kept


@dataclass
class ChainComplex:
    """Graded family of free-module ranks plus differential matrices.

    ``ranks`` maps degree to a positive rank (zero ranks are pruned);
    ``diffs`` maps degree ``n`` to the matrix of the differential leaving
    degree ``n``.  Matrices equal to zero are pruned; ``diff(n)`` returns
    an explicit zero matrix of the right shape for any degree.
    """

    ring: Ring
    convention: str
    ranks: dict[int, int]
    diffs: dict[int, Matrix] = field(default_factory=dict)

    def __post_init__(self):
        if self.convention not in (COCHAIN, CHAIN):
            raise ConventionMismatch(f"unknown convention {self.convention!r}")
        self.ranks = {n: r for n, r in self.ranks.items() if r != 0}
        for n, r in self.ranks.items():
            if r < 0:
                raise ValidationError(f"negative rank {r} at degree {n}")
        self.diffs = _nonzero_blocks(self.diffs, self, self, self.step, "differential")

    @property
    def step(self) -> int:
        """Degree change of the differential: +1 for cochain, -1 for chain."""
        return convention_sign(self.convention)

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def diff(self, n: int) -> Matrix:
        if n in self.diffs:
            return self.diffs[n]
        return Matrix.zeros(self.ring, self.rank(n + self.step), self.rank(n))

    def degrees(self) -> list[int]:
        return sorted(self.ranks)

    def total_dim(self) -> int:
        return sum(self.ranks.values())

    def is_scalar(self) -> bool:
        """Zero differentials everywhere."""
        return not self.diffs


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exact degreewise check; ``entry`` is the first failing (i, j).

    ``composites`` is filled only by :func:`verify_homotopy`, with the
    product it computed at each degree.
    """

    ok: bool
    degree: Optional[int] = None
    entry: Optional[tuple[int, int]] = None
    message: str = ""
    composites: dict[int, Matrix] = field(default_factory=dict)


def _product(left: dict, i: int, right: dict, j: int) -> Optional[Matrix]:
    """``left[i] @ right[j]``, or ``None`` for the zero product of a pruned block."""
    return left[i] @ right[j] if i in left and j in right else None


def validate_complex(x: ChainComplex) -> CheckReport:
    """Check that consecutive differentials compose to zero.

    A pruned (zero) differential composes to zero with no product.
    """
    for n in x.degrees():
        comp = _product(x.diffs, n + x.step, x.diffs, n)
        spot = comp.first_nonzero() if comp is not None else None
        if spot is not None:
            message = f"d∘d != 0 leaving degree {n}: entry {spot} is {x.ring.render(comp[spot])}"
            return CheckReport(False, degree=n, entry=spot, message=message)
    return CheckReport(True)


@dataclass
class GradedMap:
    """Degree-homogeneous family of matrices between two complexes.

    The block at degree ``n`` maps the source's degree-``n`` module to the
    target's degree ``n + degree_shift`` module (in the shared internal
    cochain indexing).  Zero blocks are pruned; ``block(n)`` materializes
    them on demand.
    """

    source: ChainComplex
    target: ChainComplex
    degree_shift: int
    blocks: dict[int, Matrix] = field(default_factory=dict)

    def __post_init__(self):
        if self.source.ring != self.target.ring:
            raise RingMismatch("graded map between complexes over different rings")
        if self.source.convention != self.target.convention:
            raise ConventionMismatch("graded map between mixed conventions")
        self.blocks = _nonzero_blocks(self.blocks, self.source, self.target, self.degree_shift, "block")

    @property
    def ring(self) -> Ring:
        return self.source.ring

    def block(self, n: int) -> Matrix:
        if n in self.blocks:
            return self.blocks[n]
        return Matrix.zeros(self.ring, self.target.rank(n + self.degree_shift), self.source.rank(n))


class Homotopy(GradedMap):
    """A degree-(-1) :class:`GradedMap` of one complex to itself.

    Block ``n`` maps degree ``n`` to ``n - 1``; validation, pruning of zero
    blocks and ``block(n)`` are those of every graded map.
    """

    def __init__(self, on: ChainComplex, blocks: dict[int, Matrix]):
        super().__init__(on, on, -1, blocks)

    @property
    def on(self) -> ChainComplex:
        return self.source


def validate_chain_map(f: GradedMap) -> CheckReport:
    """Check ``d_target ∘ f_n == f_{n+1} ∘ d_source`` at every degree.

    A side with a pruned (zero) factor is zero and costs no product; the
    other side then fails where it is nonzero.
    """
    if f.degree_shift != 0:
        raise ValidationError("chain-map check applies to shift-0 maps")
    x, y = f.source, f.target
    degrees = sorted(set(x.ranks) | set(y.ranks))
    for n in degrees:
        lhs = _product(y.diffs, n, f.blocks, n)
        rhs = _product(f.blocks, n + x.step, x.diffs, n)
        if lhs is None or rhs is None:
            side = rhs if lhs is None else lhs
            spot = side.first_nonzero() if side is not None else None
        else:
            spot = None if lhs == rhs else (lhs - rhs).first_nonzero()
        if spot is not None:
            return CheckReport(False, degree=n, entry=spot, message=f"square at degree {n} fails at entry {spot}")
    return CheckReport(True)


def verify_homotopy(x: ChainComplex, f: GradedMap, g: GradedMap, psi: Homotopy) -> CheckReport:
    """Exact degreewise check of the homotopy identity.

    ``composites`` records ``d∘psi + psi∘d`` at every supported degree so
    callers can inspect the witnessed products.  Each is computed as the
    one product ``[d_{n-1} | psi_{n+1}] @ [psi_n ; d_n]``, which adds only
    nonzero terms, rather than as a sum of two matrices.
    """
    if psi.on != x:
        raise ValidationError("homotopy is attached to a different complex")
    for m in (f, g):
        if m.source != x or m.target != x or m.degree_shift != 0:
            raise ValidationError("verify_homotopy compares degree-0 endomorphisms")
    composites = {}
    failure = None
    for n in x.degrees():
        lhs = hstack([x.diff(n - 1), psi.block(n + 1)]) @ vstack([psi.block(n), x.diff(n)])
        composites[n] = lhs
        # With no block of f here (the zero map), f - g is -g.
        target = f.block(n) - g.block(n) if n in f.blocks else -g.block(n)
        if failure is None and lhs != target:
            failure = (n, (lhs - target).first_nonzero())
    if failure is None:
        return CheckReport(True, composites=composites)
    n, spot = failure
    return CheckReport(
        False,
        degree=n,
        entry=spot,
        composites=composites,
        message=f"homotopy identity fails at degree {n}, entry {spot}",
    )


def zero_map(source: ChainComplex, target: ChainComplex) -> GradedMap:
    return GradedMap(source, target, 0, {})


def identity_map(x: ChainComplex) -> GradedMap:
    blocks = {n: Matrix.identity(x.ring, r) for n, r in x.ranks.items()}
    return GradedMap(x, x, 0, blocks)


def scalar_object(ring: Ring, ranks: dict[int, int]) -> ChainComplex:
    """Cochain complex with the given ranks and all-zero differentials."""
    return ChainComplex(ring, COCHAIN, dict(ranks), {})


def convert_convention(x: ChainComplex, to: str) -> ChainComplex:
    """Convert between chain and cochain presentations by negating degrees; :class:`ChainComplex` checks ``to``."""
    if x.convention == to:
        return x
    ranks = {-n: r for n, r in x.ranks.items()}
    diffs = {-n: m for n, m in x.diffs.items()}
    return ChainComplex(x.ring, to, ranks, diffs)
