"""Zero-skipping kernels against naive dense references.

``@``, ``rref`` and ``smith_normal_form`` skip zero entries.  The dense
loops below are the definitions they must reproduce exactly: the same
entries, pivots and transforms, with every entry canonical for its ring.
The transforms are replayed from the elimination's log when first read,
so they must match whichever of them is read first.  Over Q, ``@`` also
multiplies non-integral rationals, on integer numerators, and must
return an ``int`` for every integral entry, also when an operand's only
``Fraction``s are integral.  ``submatrix`` and ``cols_at`` take tuple
slices and ``itemgetter`` picks, and must pick what per-entry indexing
picks; ``placed`` must give what its identity-slice product gives; and
Smith images, image coordinates and solves, which skip the rows of
invariant factors equal to one, must match dense references.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from eigenchain import GF, QQ, ZZ, Matrix, rref, smith_normal_form
from eigenchain.simplicial import simplicial_to_chain

from test_golden_simplicial import CORPUS as SIMPLICIAL

FIELDS = [QQ, GF(2), GF(5)]
RINGS = FIELDS + [ZZ]
EMPTY_SHAPES = [(0, 4), (4, 0), (0, 0)]


def _red(ring):
    return ring.reduce if ring.needs_reduction else (lambda v: v)


def sparse_matrix(ring, rng, rows, cols):
    """Seeded ±1 entries at a density between 5% and 20%."""
    density = rng.uniform(0.05, 0.20)
    entries = [
        [rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    return Matrix(ring, entries, cols=cols)


def dense_matrix(ring, rng, rows, cols):
    return Matrix(ring, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols=cols)


def rational_matrix(ring, rng, rows, cols):
    """Seeded ``int`` and ``Fraction`` entries over Q.

    About a third of the rows and of the columns hold no ``Fraction``, and
    some rows hold only integral ones, which sums and eliminations may
    leave in a matrix.  The non-integral fractions are odd numerators over
    2, 4 or 6, so sums of their products often cancel to 0 or to an
    integer.
    """
    kind = {i: rng.choices(("int", "integral", "mixed"), (3, 2, 5))[0] for i in range(rows)}
    int_cols = {j for j in range(cols) if rng.random() < 0.3}

    def entry(i, j):
        if kind[i] == "int" or j in int_cols or rng.random() < 0.3:
            return rng.choice((0, 0, 1, -1, 2))
        if kind[i] == "integral" or rng.random() < 0.1:
            return Fraction(rng.choice((0, 1, -2)))
        return Fraction(rng.choice((-3, -1, 1, 3, 5)), rng.choice((2, 4, 6)))

    entries = tuple(tuple(entry(i, j) for j in range(cols)) for i in range(rows))
    return Matrix._raw(ring, rows, cols, entries)


def edge_matrix(ring, rng, rows, cols):
    """Seeded Q operands at two edges of the product's rule.

    Half are ``int``s mixed with integral ``Fraction``s only: the lcm of
    their denominators is 1, yet a product with them must still return
    ``int``s.  The other half hold non-integral entries over the coprime
    3, 5 and 7, at most one per row and per column, so the operand's lcm
    exceeds the lcm of every row and of every column.
    """
    if rng.random() < 0.5:
        values = (0, 1, -2, Fraction(1), Fraction(-2), Fraction(3))
        entries = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
    else:
        entries = [[rng.choice((0, 0, 1, -1)) for _ in range(cols)] for _ in range(rows)]
        shift = rng.randrange(cols)
        for i in range(min(rows, cols)):
            entries[i][(i + shift) % cols] = Fraction(rng.choice((-2, -1, 1, 2, 4)), (3, 5, 7)[i % 3])
    return Matrix._raw(ring, rows, cols, tuple(map(tuple, entries)))


def assert_canonical(m: Matrix):
    for row in m.data:
        for v in row:
            if m.ring == QQ:
                # A Q value is an int or a Fraction, never a bool or a float;
                # arithmetic may leave an integral Fraction.
                assert type(v) in (int, Fraction)
            else:
                assert type(v) is int
                if m.ring.needs_reduction:
                    assert 0 <= v < m.ring.p


def as_tuples(grid):
    return tuple(tuple(row) for row in grid)


# -- naive dense references ---------------------------------------------------


def dense_matmul(a: Matrix, b: Matrix):
    red, zero = _red(a.ring), a.ring.normalize(0)
    return [
        [red(sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)), zero)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def dense_rref(a: Matrix):
    ring, red = a.ring, _red(a.ring)
    m, n = a.rows, a.cols
    work, trans = a.grid(), Matrix.identity(ring, m).grid()
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        trans[r], trans[p] = trans[p], trans[r]
        inv = ring.inv(work[r][c])
        work[r] = [red(v * inv) for v in work[r]]
        trans[r] = [red(v * inv) for v in trans[r]]
        for i in range(m):
            f = work[i][c]
            if i != r and f != 0:
                work[i] = [red(x - f * y) for x, y in zip(work[i], work[r])]
                trans[i] = [red(x - f * y) for x, y in zip(trans[i], trans[r])]
        pivots.append(c)
    return work, trans, tuple(pivots)


def dense_snf(a: Matrix):
    """Smallest-absolute-value pivot, ties row-major; full-row and full-column updates."""
    m, n = a.rows, a.cols
    w = a.grid()
    u, uinv, v = (Matrix.identity(ZZ, k).grid() for k in (m, m, n))

    def add_row(i, t, q):  # row_i += q * row_t, col_t of u_inv -= q * col_i
        w[i] = [x + q * y for x, y in zip(w[i], w[t])]
        u[i] = [x + q * y for x, y in zip(u[i], u[t])]
        for r in range(m):
            uinv[r][t] -= q * uinv[r][i]

    def swap_rows(i, t):
        w[i], w[t] = w[t], w[i]
        u[i], u[t] = u[t], u[i]
        for row in uinv:
            row[i], row[t] = row[t], row[i]

    def add_col(j, t, q):  # col_j += q * col_t
        for grid in (w, v):
            for row in grid:
                row[j] += q * row[t]

    def swap_cols(j, t):
        for grid in (w, v):
            for row in grid:
                row[j], row[t] = row[t], row[j]

    for t in range(min(m, n)):
        cells = [(abs(w[i][j]), i, j) for i in range(t, m) for j in range(t, n) if w[i][j]]
        if not cells:
            break
        _, i, j = min(cells)
        while True:
            if i != t:
                swap_rows(i, t)
            if j != t:
                swap_cols(j, t)
            if w[t][t] < 0:
                w[t] = [-x for x in w[t]]
                u[t] = [-x for x in u[t]]
                for row in uinv:
                    row[t] = -row[t]
            restart = False
            for i in range(t + 1, m):
                while w[i][t]:
                    add_row(i, t, -(w[i][t] // w[t][t]))
                    if w[i][t]:
                        swap_rows(i, t)
            for j in range(t + 1, n):
                while w[t][j]:
                    add_col(j, t, -(w[t][j] // w[t][t]))
                    if w[t][j]:
                        swap_cols(j, t)
                        restart = True
            i = j = t
            if restart or any(w[r][t] for r in range(t + 1, m)):
                continue
            d = w[t][t]
            offender = next(
                (r for r in range(t + 1, m) if any(w[r][c] % d for c in range(t + 1, n))), None
            )
            if offender is None:
                break
            add_row(t, offender, 1)
    return w, u, v, uinv


# -- equivalence ----------------------------------------------------------------


def _shapes(rng):
    return [(rng.randint(1, 14), rng.randint(1, 14), rng.randint(1, 14)) for _ in range(3)]


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_matmul_matches_the_dense_product(ring, seed):
    rng = random.Random(seed)
    generators = (sparse_matrix, dense_matrix) + ((rational_matrix, edge_matrix) if ring == QQ else ())
    cancelled = set()
    for m, k, n in _shapes(rng):
        for left in generators:
            for right in generators:
                a, b = left(ring, rng, m, k), right(ring, rng, k, n)
                prod = a @ b
                assert (prod.rows, prod.cols) == (m, n)
                assert prod.data == as_tuples(dense_matmul(a, b))
                assert_canonical(prod)
                if ring == QQ:
                    # A Q product holds an int for every integral entry.
                    assert not any(type(v) is Fraction and v.denominator == 1 for row in prod.data for v in row)
                    cancelled |= _cancellations(a, b)
    if ring == QQ:
        assert cancelled == {"to 0", "to an integer"}


def _cancellations(a: Matrix, b: Matrix) -> set:
    """Which integral values, 0 or not, some entry of ``a @ b`` sums non-integral products to."""
    found = set()
    for i in range(a.rows):
        for j in range(b.cols):
            terms = [a[i, t] * b[t, j] for t in range(a.cols)]
            if any(type(v) is Fraction and v.denominator != 1 for v in terms) and sum(terms) % 1 == 0:
                found.add("to 0" if sum(terms) == 0 else "to an integer")
    return found


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("m, k, n", [(0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0), (3, 0, 0), (0, 0, 3)])
def test_matmul_of_empty_shapes(ring, m, k, n):
    rng = random.Random(7)
    prod = dense_matrix(ring, rng, m, k) @ dense_matrix(ring, rng, k, n)
    assert (prod.rows, prod.cols) == (m, n)
    assert prod.data == as_tuples([[ring.normalize(0)] * n for _ in range(m)])
    assert_canonical(prod)


def _assert_rref_matches(a: Matrix):
    res = rref(a)
    work, trans, pivots = dense_rref(a)
    assert res.echelon.data == as_tuples(work)
    assert res.transform.data == as_tuples(trans)
    assert res.pivots == pivots
    assert_canonical(res.echelon)
    assert_canonical(res.transform)


@pytest.mark.parametrize("ring", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_rref_matches_dense_elimination(ring, seed):
    rng = random.Random(seed)
    for m, n, _ in _shapes(rng):
        _assert_rref_matches(sparse_matrix(ring, rng, m, n))
        _assert_rref_matches(dense_matrix(ring, rng, m, n))


@pytest.mark.parametrize("ring", FIELDS, ids=str)
@pytest.mark.parametrize("m, n", EMPTY_SHAPES)
def test_rref_of_empty_shapes(ring, m, n):
    _assert_rref_matches(Matrix.zeros(ring, m, n))


def _assert_snf_matches(a: Matrix):
    res = smith_normal_form(a)
    w, u, v, uinv = dense_snf(a)
    assert res.s.data == as_tuples(w)
    assert res.u.data == as_tuples(u)
    assert res.v.data == as_tuples(v)
    assert res.u_inv.data == as_tuples(uinv)
    assert res.invariant_factors == tuple(w[i][i] for i in range(min(a.rows, a.cols)))
    for mat in (res.s, res.u, res.v, res.u_inv):
        assert_canonical(mat)


@pytest.mark.parametrize("seed", range(6))
def test_smith_form_matches_dense_reduction(seed):
    rng = random.Random(seed)
    for m, n, _ in _shapes(rng):
        _assert_snf_matches(sparse_matrix(ZZ, rng, m, n))
        _assert_snf_matches(Matrix(ZZ, [[rng.choice((1, -1)) for _ in range(n)] for _ in range(m)], cols=n))
    # Dense inputs stay small: their transforms grow fast.
    _assert_snf_matches(dense_matrix(ZZ, rng, rng.randint(1, 7), rng.randint(1, 7)))


@pytest.mark.parametrize(
    "entries",
    [[[2, 0], [0, 3]], [[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [[6, 0, 0], [0, 10, 0], [0, 0, 15]]],
)
def test_smith_form_folds_rows_for_divisibility(entries):
    # The pivot divides its row and column but not the rest, so a row is folded in.
    _assert_snf_matches(Matrix(ZZ, entries))


@pytest.mark.parametrize("name, vertices, facets", SIMPLICIAL, ids=[c[0] for c in SIMPLICIAL])
def test_smith_form_of_simplicial_boundaries_matches_dense_reduction(name, vertices, facets):
    # ±1 entries: the pivot search stops at the first unit and a unit pivot skips the divisibility scan.
    chain, _ = simplicial_to_chain(vertices, facets, ZZ)
    for d in chain.diffs.values():
        _assert_snf_matches(d)
        _assert_snf_matches(d.transpose())


@pytest.mark.parametrize("m, n", EMPTY_SHAPES)
def test_smith_form_of_empty_shapes(m, n):
    _assert_snf_matches(Matrix.zeros(ZZ, m, n))


def _replay_inputs(rng):
    for m, n, _ in _shapes(rng):
        yield sparse_matrix(ZZ, rng, m, n)
    yield dense_matrix(ZZ, rng, rng.randint(1, 7), rng.randint(1, 7))
    yield Matrix(ZZ, [[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    for m, n in EMPTY_SHAPES:
        yield Matrix.zeros(ZZ, m, n)


@pytest.mark.parametrize("order", list(permutations(("u", "u_inv", "v"))), ids="-".join)
@pytest.mark.parametrize("seed", range(3))
def test_smith_transforms_read_in_any_order_match_dense_reduction(order, seed):
    for a in _replay_inputs(random.Random(100 + seed)):
        res = smith_normal_form(a)
        w, u, v, uinv = dense_snf(a)
        expected = {"u": u, "u_inv": uinv, "v": v}
        for name in order:
            mat = getattr(res, name)
            assert mat.data == as_tuples(expected[name])
            assert_canonical(mat)
            assert getattr(res, name) is mat
        assert res.s.data == as_tuples(w)


@pytest.mark.parametrize("ring", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_rref_transform_read_first_matches_dense_elimination(ring, seed):
    rng = random.Random(200 + seed)
    inputs = [Matrix.zeros(ring, m, n) for m, n in EMPTY_SHAPES]
    for m, n, _ in _shapes(rng):
        inputs += [sparse_matrix(ring, rng, m, n), dense_matrix(ring, rng, m, n)]
    for a in inputs:
        res = rref(a)
        work, trans, pivots = dense_rref(a)
        assert res.transform.data == as_tuples(trans)
        assert_canonical(res.transform)
        assert res.transform is res.transform
        assert (res.echelon.data, res.pivots) == (as_tuples(work), pivots)


# -- slices ---------------------------------------------------------------------


def _index_lists(n, rng):
    """Every contiguous and every reversed range of ``0..n-1``, and seeded lists, tuples, single indices and none."""
    yield from (range(i, j) for i in range(n + 1) for j in range(i, n + 1))
    yield from (range(j, i - 1, -1) for i in range(n) for j in range(i, n))
    yield from (range(n - 1, -1, -1), range(0, n, 2), [], ())
    for _ in range(4):
        picks = [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))] if n else []
        yield picks
        yield tuple(picks)
    yield from ([j] for j in range(n))
    yield from ((j,) for j in range(n))


SLICE_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (3, 4), (5, 2)]


def _slice_input(ring, rng, rows, cols):
    return (rational_matrix if ring == QQ else dense_matrix)(ring, rng, rows, cols)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
@pytest.mark.parametrize("rows, cols", SLICE_SHAPES)
def test_submatrix_and_cols_at_match_per_entry_picks(ring, rows, cols):
    rng = random.Random(f"slices-{ring}-{rows}x{cols}")
    a = _slice_input(ring, rng, rows, cols)
    row_lists, col_lists = list(_index_lists(rows, rng)), list(_index_lists(cols, rng))
    for r in row_lists:
        for c in col_lists:
            part = a.submatrix(r, c)
            assert (part.rows, part.cols) == (len(r), len(c))
            assert part.data == tuple(tuple(a.data[i][j] for j in c) for i in r)
            assert all(type(row) is tuple for row in part.data)
    for c in col_lists:
        part = a.cols_at(c)
        assert (part.rows, part.cols) == (rows, len(c))
        assert part.data == tuple(tuple(row[j] for j in c) for row in a.data)
        assert all(type(row) is tuple for row in part.data)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
@pytest.mark.parametrize("n", range(4))
def test_full_slices_are_the_matrix_and_keep_the_identity_mark(ring, n):
    rng = random.Random(f"full-{ring}-{n}")
    eye = Matrix.identity(ring, n)
    for a in (eye, _slice_input(ring, rng, n, 3), _slice_input(ring, rng, 2, n)):
        for rows in (range(a.rows), list(range(a.rows)), tuple(range(a.rows))):
            for cols in (range(a.cols), list(range(a.cols)), tuple(range(a.cols))):
                assert a.submatrix(rows, cols) is a
            assert a.cols_at(rows if a.rows == a.cols else range(a.cols)) is a
    assert eye.submatrix(range(n), range(n)).marked_identity
    assert eye.cols_at(list(range(n))).marked_identity
    if n > 1:
        assert not eye.submatrix(range(n - 1, -1, -1), range(n)).marked_identity
        assert not eye.cols_at(range(1, n)).marked_identity


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 4), (4, 2)])
def test_an_index_outside_the_matrix_raises(ring, rows, cols):
    # A bare slice past the end would shorten the result instead.
    a = _slice_input(ring, random.Random(3), rows, cols)
    for bad_rows in (range(rows + 1), range(rows - 1, rows + 1), range(rows, rows - 2, -1), [rows], (0, rows)):
        with pytest.raises(IndexError):
            a.submatrix(bad_rows, range(cols))
    for bad_cols in (range(cols + 1), range(cols - 1, cols + 1), range(cols, -1, -1), [cols], (0, cols)):
        with pytest.raises(IndexError):
            a.submatrix(range(rows), bad_cols)
        with pytest.raises(IndexError):
            a.cols_at(bad_cols)


def _entries_and_types(m: Matrix):
    return m.data, tuple(tuple(map(type, row)) for row in m.data)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_placed_rows_are_the_identity_slice_product(ring, seed):
    # I[:, at] @ c as that product gives it: entries, their types, and c itself for the full range.
    rng = random.Random(f"placed-{ring}-{seed}")
    generators = (rational_matrix, edge_matrix, dense_matrix) if ring == QQ else (dense_matrix, sparse_matrix)
    for n in range(5):
        for k in range(n + 1):
            at = sorted(rng.sample(range(n), k))
            for make in generators:
                c = make(ring, rng, k, rng.randint(1, 4))
                product = Matrix.identity(ring, n).submatrix(range(n), at) @ c
                placed = c.placed(n, at)
                assert (placed.rows, placed.cols) == (n, c.cols)
                assert _entries_and_types(placed) == _entries_and_types(product)
                assert (placed is c) == (k == n) == (product is c)


# -- Smith images and solves ------------------------------------------------------


def _unimodular(rng, k):
    """A seeded product of elementary integer row operations on the ``k x k`` identity."""
    g = Matrix.identity(ZZ, k).grid()
    for _ in range(3 * k):
        i, t = rng.sample(range(k), 2)
        q = rng.choice((-2, -1, 1, 2))
        g[i] = [x + q * y for x, y in zip(g[i], g[t])]
    rng.shuffle(g)
    return Matrix(ZZ, g)


def _with_factors(rng, factors, m, n):
    """``P @ diag(factors) @ Q``, ``m x n``, with seeded unimodular ``P`` and ``Q``."""
    diag = Matrix(ZZ, [[factors[i] if i == j and i < len(factors) else 0 for j in range(n)] for i in range(m)], cols=n)
    return _unimodular(rng, m) @ diag @ _unimodular(rng, n)


def _dense_product(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


SMITH_FACTORS = [(1, 1, 1), (1, 2, 6), (2, 6), (1, 1, 3, 3), ()]


@pytest.mark.parametrize("factors", SMITH_FACTORS, ids=str)
@pytest.mark.parametrize("m, n", [(4, 5), (5, 4), (4, 4)])
def test_smith_image_coords_and_solve_match_dense_references(factors, m, n):
    rng = random.Random(f"smith-{factors}-{m}x{n}")
    a = _with_factors(rng, factors, m, n)
    res = smith_normal_form(a)
    r = len(factors)
    assert res.invariant_factors == factors + (0,) * (min(m, n) - r)
    _, u, v, uinv = dense_snf(a)
    # image: U^-1[:, :r] with column j scaled by d_j
    image = res.image().vectors
    assert image.data == as_tuples([[uinv[i][j] * factors[j] for j in range(r)] for i in range(m)])
    for k in (1, 3):
        x0 = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        b = a @ Matrix(ZZ, x0, cols=k)
        # coordinates in the image: (U b)[:r] / d
        ub = _dense_product(u, [list(row) for row in b.data])
        coords = res.image_coords(b)
        assert coords.data == as_tuples([[x // factors[i] for x in ub[i]] for i in range(r)])
        assert image @ coords == b
        # one solution: V[:, :r] @ ((U b)[:r] / d)
        x = res.solve(b)
        assert x.data == as_tuples(_dense_product([row[:r] for row in v], [[y // factors[i] for y in ub[i]] for i in range(r)]) if r else [[0] * k for _ in range(n)])
        assert a @ x == b
        for mat in (image, coords, x):
            assert_canonical(mat)
    # U^-1 e_i has U-coordinates e_i: outside the image past the rank, and not divisible by a factor above one
    for i in range(m):
        e = Matrix(ZZ, [[uinv[row][i]] for row in range(m)], cols=1)
        assert (res.solve(e) is None) == (i >= r or factors[i] != 1)
