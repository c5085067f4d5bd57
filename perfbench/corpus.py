"""Seeded simplicial inputs with answers known in closed form.

Every family here has homology that is known without running eigenchain:
k-skeleta of simplices, boundaries of simplices (spheres), the 7-vertex
torus, the 6-vertex projective plane and a 9-vertex Klein bottle.  Random
facet subsets have no closed form; for them the check is the Euler
characteristic, counted here from the faces.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import independent


def skeleton(n: int, k: int):
    """Facets of the k-skeleton (0 < k < n) of the n-simplex, and its homology over Z."""
    facets = [list(f) for f in combinations(range(n + 1), k + 1)]
    return n + 1, facets, {0: (1, ()), k: (comb(n, k + 1), ())}


def sphere(n: int):
    """Boundary of the n-simplex: the (n-1)-sphere."""
    facets = [list(f) for f in combinations(range(n + 1), n)]
    return n + 1, facets, {0: (1, ()), n - 1: (1, ())}


def torus():
    facets = [[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)]
    facets += [[i, (i + 2) % 7, (i + 3) % 7] for i in range(7)]
    return 7, facets, {0: (1, ()), 1: (2, ()), 2: (1, ())}


def projective_plane():
    facets = [
        [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
        [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
    ]
    return 6, facets, {0: (1, ()), 1: (0, (2,)), 2: (0, ())}


def klein_bottle():
    """3x3 grid, glued straight along one side and with a flip along the other."""
    m = n = 3

    def v(i, j):
        if j == n:
            i, j = -i, 0
        return (i % m) * n + j

    facets = []
    for i in range(m):
        for j in range(n):
            facets.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            facets.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
    return m * n, facets, {0: (1, ()), 1: (1, (2,)), 2: (0, ())}


def facet_subset(rng: random.Random, n: int, k: int, count: int):
    """``count`` distinct k-simplices of the n-simplex; homology unknown."""
    facets = rng.sample([list(f) for f in combinations(range(n + 1), k + 1)], count)
    return n + 1, facets, None


def relabel(rng: random.Random, vertices: int, facets):
    """The same complex with its vertex indices permuted."""
    perm = list(range(vertices))
    rng.shuffle(perm)
    return [[perm[v] for v in facet] for facet in facets]


def boundaries(facets):
    """Simplex counts and boundary matrices of the closure, in cochain indexing.

    Degree -k holds the k-simplices (sorted vertex tuples, sorted), and the
    differential leaving it is the signed boundary to (k-1)-simplices.
    """
    faces: dict[int, set] = {}
    for facet in facets:
        s = tuple(sorted(facet))
        for size in range(1, len(s) + 1):
            faces.setdefault(size - 1, set()).update(combinations(s, size))
    simplices = {k: sorted(v) for k, v in faces.items()}
    ranks = {-k: len(v) for k, v in simplices.items()}
    diffs = {}
    for k, simps in simplices.items():
        if k == 0:
            continue
        index = {s: i for i, s in enumerate(simplices[k - 1])}
        rows = [[0] * len(simps) for _ in simplices[k - 1]]
        for j, s in enumerate(simps):
            for i in range(len(s)):
                rows[index[s[:i] + s[i + 1:]]][j] += -1 if i % 2 else 1
        diffs[-k] = rows
    return ranks, diffs


def torsion_confirmed(facets, factors) -> bool:
    return independent.torsion_confirmed(*boundaries(facets), factors)


def euler_characteristic(facets) -> int:
    ranks, _ = boundaries(facets)
    return sum((-1) ** -n * c for n, c in ranks.items())


def full_homology(expected: dict, top: int) -> dict[int, tuple[int, tuple]]:
    """Closed-form homology padded with zero groups up to dimension ``top``."""
    return {k: expected.get(k, (0, ())) for k in range(top + 1)}
