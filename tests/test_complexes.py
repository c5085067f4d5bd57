"""Complex validation, constructions, and convention duality."""

import random

import pytest

from eigenchain import (
    GF,
    QQ,
    ZZ,
    ChainComplex,
    GradedMap,
    Matrix,
    block_diag,
    convert_convention,
    homology,
    identity_map,
    scalar_object,
    validate_chain_map,
    validate_complex,
)
from eigenchain.errors import ValidationError
from eigenchain.randgen import random_complex


def test_zero_differentials_always_validate():
    x = scalar_object(QQ, {0: 2, 5: 1, -3: 4})
    assert validate_complex(x).ok


def test_circle_validates(circle):
    assert validate_complex(circle).ok


def test_stacked_identities_fail_at_the_right_degree():
    x = ChainComplex(
        QQ,
        "cochain",
        {0: 2, 1: 2, 2: 2},
        {0: Matrix.identity(QQ, 2), 1: Matrix.identity(QQ, 2)},
    )
    report = validate_complex(x)
    assert not report.ok
    assert report.degree == 0
    assert report.entry == (0, 0)


def test_shape_mismatch_rejected_at_construction():
    with pytest.raises(ValidationError):
        ChainComplex(QQ, "cochain", {0: 2, 1: 1}, {0: Matrix.identity(QQ, 2)})


def test_circle_eigenmap_is_a_chain_map(circle_with_pair):
    _, _, alpha = circle_with_pair
    assert validate_chain_map(alpha).ok


def test_zero_map_is_a_chain_map(circle):
    lam = scalar_object(ZZ, {0: 2})
    assert validate_chain_map(GradedMap(lam, circle, 0, {})).ok


def test_both_squares_nonzero_are_compared():
    # Every block and differential is nonzero, so each square compares two products.
    x = ChainComplex(ZZ, "cochain", {0: 2, 1: 1}, {0: Matrix(ZZ, [[1, 1]])})
    ident = identity_map(x)
    assert validate_chain_map(ident).ok
    doubled = GradedMap(x, x, 0, {**ident.blocks, 0: ident.blocks[0].scale(2)})
    report = validate_chain_map(doubled)
    assert (report.ok, report.degree, report.entry) == (False, 0, (0, 0))


def test_non_cycle_eigenmap_fails(circle):
    # A single edge is not a cycle: the boundary of [AB] is nonzero.
    lam = scalar_object(ZZ, {-1: 1})
    alpha = GradedMap(lam, circle, 0, {-1: Matrix(ZZ, [[1], [0], [0]])})
    report = validate_chain_map(alpha)
    assert not report.ok
    assert report.degree == -1


def test_scalar_object_has_zero_maps():
    lam = scalar_object(ZZ, {0: 1, 1: 1})
    assert lam.is_scalar()
    assert lam.diff(0).is_zero()


def block_diag_sum(x, y):
    """Degreewise direct sum of two cochain complexes, block-diagonal differentials."""
    degrees = set(x.ranks) | set(y.ranks)
    ranks = {n: x.rank(n) + y.rank(n) for n in degrees}
    diffs = {n: block_diag([x.diff(n), y.diff(n)]) for n in degrees}
    return ChainComplex(x.ring, "cochain", ranks, diffs)


def test_homology_of_direct_sum_is_the_sum():
    rng = random.Random(31)
    for ring in (QQ, GF(2)):
        for _ in range(10):
            x = random_complex(ring, rng, max_len=3, max_rank=3)
            y = random_complex(ring, rng, max_len=3, max_rank=3)
            hx = {n: h.betti for n, h in homology(x).by_degree.items()}
            hy = {n: h.betti for n, h in homology(y).by_degree.items()}
            hs = {n: h.betti for n, h in homology(block_diag_sum(x, y)).by_degree.items()}
            expected = {
                n: hx.get(n, 0) + hy.get(n, 0)
                for n in set(hx) | set(hy) | set(hs)
            }
            assert hs == {n: b for n, b in expected.items() if n in hs} and all(
                hs.get(n, 0) == b for n, b in expected.items()
            )


def test_convention_duality_preserves_validation_and_homology():
    rng = random.Random(13)
    for _ in range(10):
        x = random_complex(QQ, rng, max_len=4, max_rank=3)
        flipped = convert_convention(x, "chain")
        assert flipped.convention == "chain"
        assert validate_complex(flipped).ok
        back = convert_convention(flipped, "cochain")
        assert back == x
        hx = {n: h.betti for n, h in homology(x).by_degree.items()}
        hb = {n: h.betti for n, h in homology(back).by_degree.items()}
        assert hx == hb


def test_validated_outputs_of_constructions():
    rng = random.Random(99)
    for _ in range(8):
        x = random_complex(GF(3), rng, max_len=4, max_rank=3)
        assert validate_complex(x).ok
        y = random_complex(GF(3), rng, max_len=3, max_rank=2)
        assert validate_complex(block_diag_sum(x, y)).ok


@pytest.fixture
def products(monkeypatch):
    """The operands of every ``Matrix.__matmul__``, in call order."""
    calls = []
    original = Matrix.__matmul__

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    return calls


def test_pruned_differentials_compose_with_no_product(products):
    # d_1 is zero and pruned, so neither composite has a nonzero factor.
    x = ChainComplex(QQ, "cochain", {0: 1, 1: 2, 2: 1}, {0: Matrix(QQ, [[1], [2]]), 1: Matrix.zeros(QQ, 1, 2)})
    assert list(x.diffs) == [0]
    assert validate_complex(x).ok
    assert products == []


def _pair(alpha_0):
    """A scalar object into ``F = (Q^2 --[1 1]--> Q)``, degree 0 by ``alpha_0`` and degree 1 by one."""
    f = ChainComplex(QQ, "cochain", {0: 2, 1: 1}, {0: Matrix(QQ, [[1, 1]])})
    lam = scalar_object(QQ, {0: 1, 1: 1})
    return GradedMap(lam, f, 0, {0: Matrix(QQ, alpha_0), 1: Matrix(QQ, [[1]])})


def test_a_chain_map_multiplies_no_pruned_block(products):
    # lambda's differentials are pruned and F has none leaving degree 1:
    # the only product is d_0 @ alpha_0.
    alpha = _pair([[1], [-1]])
    assert validate_chain_map(alpha).ok
    assert products == [(alpha.target.diffs[0], alpha.blocks[0])]


def test_a_broken_square_reports_where_it_fails(products):
    report = validate_chain_map(_pair([[1], [0]]))
    assert (report.ok, report.degree, report.entry) == (False, 0, (0, 0))
    assert report.message == "square at degree 0 fails at entry (0, 0)"
    # Only the right-hand side is nonzero: a map out of a complex whose differential is not zero.
    x = ChainComplex(GF(3), "cochain", {0: 1, 1: 2}, {0: Matrix(GF(3), [[0], [1]])})
    y = scalar_object(GF(3), {0: 1, 1: 2})
    report = validate_chain_map(GradedMap(x, y, 0, {1: Matrix.identity(GF(3), 2)}))
    assert (report.ok, report.degree, report.entry) == (False, 0, (1, 0))
    assert report.message == "square at degree 0 fails at entry (1, 0)"
