"""Seeded random generators for property suites.

Complexes are built differential by differential: each new matrix is a
random combination of rows annihilating the image of the previous one,
so d∘d = 0 holds by construction while homology stays varied.  The
eigenmap variants deliberately break each certificate hypothesis in turn:
all but the random cycle-valued one replace the canonical eigenmap's
block at one drawn degree.  A complex whose homology has torsion has no
canonical pair and no variants.
"""

from __future__ import annotations

import random

from .complexes import COCHAIN, ChainComplex, GradedMap, scalar_object
from .decompose import canonical_alpha
from .errors import TorsionHomology
from .linalg import kernel_basis
from .matrix import Matrix, hstack
from .rings import Ring


def _random_entry(ring: Ring, rng: random.Random):
    if ring.is_field and ring.needs_reduction:
        return rng.randrange(ring.p)
    return rng.randint(-2, 2)


def _random_matrix(ring: Ring, rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(ring, [[_random_entry(ring, rng) for _ in range(cols)] for _ in range(rows)])


def random_complex(
    ring: Ring,
    rng: random.Random,
    max_len: int = 6,
    max_rank: int = 4,
    total_cap: int | None = None,
) -> ChainComplex:
    """A valid bounded complex with random ranks and differentials."""
    length = rng.randint(1, max_len)
    lo = rng.randint(-3, 3)
    ranks = {}
    budget = total_cap if total_cap is not None else max_len * max_rank
    for i in range(length):
        r = rng.randint(0, min(max_rank, budget))
        budget -= r
        if r:
            ranks[lo + i] = r
    x = ChainComplex(ring, COCHAIN, ranks)
    diffs = {}
    for n in sorted(ranks):
        src, tgt = x.rank(n), x.rank(n + 1)
        if not (src and tgt):
            continue
        incoming = diffs.get(n - 1)
        if incoming is None:
            d = _random_matrix(ring, rng, tgt, src)
        else:
            # Rows must kill the incoming image: combine kernel rows of d^T.
            ker = kernel_basis(incoming.transpose())
            if ker.dim == 0:
                continue
            mix = _random_matrix(ring, rng, tgt, ker.dim)
            d = mix @ ker.vectors.transpose()
        if not d.is_zero():
            diffs[n] = d
    return ChainComplex(ring, COCHAIN, ranks, diffs)


def _random_cycles(f: ChainComplex, n: int, count: int, rng: random.Random) -> Matrix:
    """``count`` random combinations of one kernel basis of ``f.diff(n)``, as columns, drawn column by column."""
    ker = kernel_basis(f.diff(n))
    mix = Matrix(f.ring, [[_random_entry(f.ring, rng) for _ in range(ker.dim)] for _ in range(count)])
    return ker.vectors @ mix.transpose()


def alpha_variants(f: ChainComplex, rng: random.Random):
    """Labeled (scalar, eigenmap) pairs probing every verdict path; none when homology has torsion.

    Yields the canonical pair plus perturbations: padded or truncated
    scalar ranks, zeroed and duplicated columns (non-injective), columns
    replaced by boundaries (image leaves the complement), columns shifted
    by boundaries (still a homology iso, complement missed on purpose),
    and fully random cycle-valued maps.  All but the last replace the
    canonical eigenmap's block at one drawn degree ``n0``.
    """
    try:
        lam, alpha = canonical_alpha(f)
    except TorsionHomology:
        return
    yield "canonical", lam, alpha
    if not lam.ranks:
        return
    ring = f.ring
    n0 = rng.choice(lam.degrees())
    m, rank = alpha.block(n0), lam.rank(n0)

    def perturbed(tag, block, rank_change=0):
        # alpha with ``block`` at n0 over lambda with rank_change more
        # generators there; a block with no columns is zero and pruned.
        scalar = scalar_object(ring, {**lam.ranks, n0: rank + rank_change}) if rank_change else lam
        return tag, scalar, GradedMap(scalar, f, 0, {**alpha.blocks, n0: block})

    # An extra generator mapping to zero, or one generator dropped: rank mismatch.
    yield perturbed("rank_padded", hstack([m, Matrix.zeros(ring, f.rank(n0), 1)]), 1)
    yield perturbed("rank_dropped", m.cols_at(range(rank - 1)), -1)

    # Zeroed or duplicated column: non-injective.
    yield perturbed("zero_column", hstack([Matrix.zeros(ring, m.rows, 1), m.cols_at(range(1, rank))]))
    if rank >= 2:
        yield perturbed("duplicate_column", hstack([m.col(0)] * 2 + [m.col(j) for j in range(2, rank)]))

    # A column replaced by a boundary leaves the complement and kills
    # homology; shifted by one, it keeps its class but misses the complement.
    d_in = f.diff(n0 - 1)
    if d_in.cols:
        boundary = d_in @ Matrix(ring, [[_random_entry(ring, rng)] for _ in range(d_in.cols)])
        rest = [m.col(j) for j in range(1, rank)]
        yield perturbed("boundary_column", hstack([boundary] + rest))
        yield perturbed("boundary_shifted", hstack([m.col(0) + boundary] + rest))

    # Random cycle-valued map with canonical ranks.
    blocks = {n: _random_cycles(f, n, lam.rank(n), rng) for n in lam.degrees()}
    yield "random_cycles", lam, GradedMap(lam, f, 0, blocks)
