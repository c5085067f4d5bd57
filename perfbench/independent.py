"""Answers computed without eigenchain's algorithms, to check its outputs.

Only plain Python integer arithmetic is used: ranks over Q by
fraction-free elimination, ranks over F_p by modular elimination, and from
them Betti numbers and the exactness of a mapping cone.  eigenchain
objects are read for their entries and never asked to compute anything.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Q = 0  # "prime" 0 stands for the rationals


def _integer_rows(rows) -> list[list[int]]:
    out = []
    for row in rows:
        scale = lcm(*(Fraction(v).denominator for v in row)) if row else 1
        out.append([int(Fraction(v) * scale) for v in row])
    return out


def rank(rows, p: int = Q) -> int:
    """Rank of a matrix given as rows of ints or Fractions, over Q or F_p."""
    if p == Q:
        m = [r for r in _integer_rows(rows) if any(r)]
    else:
        m = [[Fraction(v).numerator * pow(Fraction(v).denominator, -1, p) % p for v in r] for r in rows]
        m = [r for r in m if any(r)]
    r = 0
    width = len(m[0]) if m else 0
    for c in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top, a = m[r], m[r][c]
        for i in range(r + 1, len(m)):
            b = m[i][c]
            if not b:
                continue
            if p == Q:
                row = [a * x - b * y for x, y in zip(m[i], top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
            else:
                f = b * pow(a, -1, p) % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], top)]
        r += 1
    return r


def betti_numbers(ranks: dict[int, int], diffs: dict[int, list], p: int = Q) -> dict[int, int]:
    """Betti numbers over Q or F_p of a cochain complex given by ranks and d_n rows."""
    r = {n: rank(rows, p) for n, rows in diffs.items()}
    return {n: ranks[n] - r.get(n, 0) - r.get(n - 1, 0) for n in sorted(ranks)}


def diff_rows(f) -> dict[int, list]:
    return {n: [list(row) for row in d.data] for n, d in f.diffs.items()}


def betti(f, p: int = Q) -> dict[int, int]:
    """Betti numbers of an eigenchain cochain complex, read from its entries."""
    return betti_numbers(f.ranks, diff_rows(f), p)


def torsion_confirmed(ranks: dict[int, int], diffs: dict[int, list], factors) -> bool:
    """Whether Betti numbers over F_p differ from those over Q for some p dividing ``factors``.

    Over a free complex that happens exactly when homology over Z has
    p-torsion, so a True answer confirms the claimed torsion.
    """
    over_q = betti_numbers(ranks, diffs)
    return any(betti_numbers(ranks, diffs, p) != over_q for p in primes_dividing(factors))


def primes_dividing(values) -> list[int]:
    primes = set()
    for v in values:
        v = abs(v)
        d = 2
        while v > 1 and d * d <= v:
            while v % d == 0:
                primes.add(d)
                v //= d
            d += 1
        if v > 1:
            primes.add(v)
    return sorted(primes)


def cone_is_exact(f, lam_ranks: dict[int, int], alpha_blocks: dict, p: int = Q) -> bool:
    """Whether the mapping cone of alpha: lambda -> F is exact over Q or F_p.

    lambda has zero differential and C^n = lambda^{n+1} + F^n, so the cone
    differential leaving C^n has rank rank[alpha_{n+1} | d_n] and exactness
    at n reads dim C^n = that rank plus the one entering C^n.
    """
    degrees = set(f.degrees()) | {n - 1 for n in lam_ranks}
    lo, hi = min(degrees, default=0) - 1, max(degrees, default=0) + 1

    def out_rank(n):
        rows = f.rank(n + 1)
        a = alpha_blocks.get(n + 1)
        d = f.diffs.get(n)
        grid = [
            (list(a.data[i]) if a is not None else [0] * lam_ranks.get(n + 1, 0))
            + (list(d.data[i]) if d is not None else [0] * f.rank(n))
            for i in range(rows)
        ]
        return rank(grid, p)

    outs = {n: out_rank(n) for n in range(lo - 1, hi + 1)}
    return all(
        lam_ranks.get(n + 1, 0) + f.rank(n) == outs[n] + outs[n - 1] for n in range(lo, hi + 1)
    )


def entry_bits(text: str) -> int:
    """Bit length of the larger of numerator and denominator of a rendered scalar."""
    v = Fraction(text)
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
