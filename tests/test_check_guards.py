"""Each exact check refuses input outside its contract with a named error, not a wrong answer."""

import re
from fractions import Fraction
from unittest import mock

import pytest

from eigenchain import (
    GF,
    QQ,
    ZZ,
    ChainComplex,
    GradedMap,
    Matrix,
    brute_homology_f2,
    certify,
    homotopy_system_solvable,
    identity_map,
    mapping_cone,
    scalar_object,
    validate_chain_map,
    verify_homotopy,
    zero_map,
)
from eigenchain.certify import certify_homology_eigenvalue, decide_eigenvalue
from eigenchain.complexes import COCHAIN, convert_convention
from eigenchain.cones import Homotopy, construct_null_homotopy
from eigenchain.decompose import Decomposition
from eigenchain.errors import (
    ConventionMismatch,
    NotAField,
    NotInvertible,
    ParseError,
    RingMismatch,
    ShapeMismatch,
    TooLarge,
    ValidationError,
)
from eigenchain.linalg import SubspaceBasis, det, intersect, inverse, solve_matrix, spans_equal
from eigenchain.simplicial import simplicial_to_chain
from conftest import circle_complex, circle_pair


def _psi_on_another_complex():
    x = circle_complex()
    other = scalar_object(ZZ, {0: 1})
    verify_homotopy(x, zero_map(x, x), identity_map(x), Homotopy(other, {}))


def _shifted_endomorphism():
    x = circle_complex()
    shifted = GradedMap(x, x, 1, {})
    verify_homotopy(x, shifted, identity_map(x), Homotopy(x, {}))


def _map_between_other_complexes():
    x = circle_complex()
    other = scalar_object(ZZ, {0: 1})
    verify_homotopy(x, zero_map(x, x), identity_map(other), Homotopy(x, {}))


def _chain_map_check_of_a_shift():
    x = circle_complex()
    validate_chain_map(GradedMap(x, x, 1, {}))


def _cone_of_a_chain_convention_pair():
    lam = ChainComplex(ZZ, "chain", {0: 1})
    f = ChainComplex(ZZ, "chain", {0: 1})
    mapping_cone(GradedMap(lam, f, 0, {0: Matrix(ZZ, [[1]])}))


def _cone_of_a_shifted_map():
    _, lam, _ = circle_pair()
    mapping_cone(GradedMap(lam, circle_complex(), 1, {}))


def _map_between_rings():
    GradedMap(scalar_object(ZZ, {0: 1}), scalar_object(QQ, {0: 1}), 0, {})


def _map_between_conventions():
    GradedMap(scalar_object(ZZ, {0: 1}), ChainComplex(ZZ, "chain", {0: 1}), 0, {})


def _decide_with_another_scalar_object():
    f, _, alpha = circle_pair()
    decide_eigenvalue(f, scalar_object(ZZ, {-1: 1}), alpha)


def _det_of_a_non_square_matrix():
    det(Matrix(QQ, [[1, 2]]))


def _inverse_of_a_non_square_matrix():
    inverse(Matrix(QQ, [[1, 2]]))


def _inverse_of_a_singular_matrix_over_q():
    inverse(Matrix(QQ, [[1, 2], [2, 4]]))


def _solve_with_a_short_right_hand_side():
    solve_matrix(Matrix.identity(QQ, 3), Matrix(QQ, [[1], [2]]))


def _whole_space(ambient):
    return SubspaceBasis(ambient, Matrix.identity(QQ, ambient))


def _spans_compared_across_ambients():
    spans_equal(_whole_space(2), _whole_space(3))


def _spans_intersected_across_ambients():
    intersect(_whole_space(2), _whole_space(3))


def _certify_with_one_witness_entry_moved(ring, delta):
    """Certify the circle over ``ring`` with ``delta`` added to the first entry of the witness's lowest block."""
    chain, _ = simplicial_to_chain(3, [[0, 1], [1, 2], [0, 2]], ring)

    def moved(cone, dec, check):
        psi = construct_null_homotopy(cone, dec, check)
        n = min(psi.blocks)
        rows = psi.blocks[n].grid()
        rows[0][0] = ring.reduce(rows[0][0] + delta)
        return Homotopy(psi.on, {**psi.blocks, n: Matrix(ring, rows)})

    with mock.patch.object(certify, "construct_null_homotopy", moved):
        certify_homology_eigenvalue(convert_convention(chain, COCHAIN))


def _witness_moved_over_z():
    _certify_with_one_witness_entry_moved(ZZ, 1)


def _witness_with_a_fraction_over_q():
    _certify_with_one_witness_entry_moved(QQ, Fraction(1, 2))


def _witness_moved_over_f3():
    _certify_with_one_witness_entry_moved(GF(3), 1)


def _float_into_q():
    Matrix(QQ, [[1.5]])


def _float_into_f3():
    Matrix(GF(3), [[1.5]])


def _half_into_f3():
    Matrix(GF(3), [[Fraction(1, 2)]])


def _float_into_z():
    Matrix(ZZ, [[1.5]])


def _chain_over_f2():
    return ChainComplex(GF(2), "chain", {0: 1})


def _brute_homology_of_a_chain_complex():
    brute_homology_f2(_chain_over_f2())


def _homotopy_oracle_on_a_chain_complex():
    x = _chain_over_f2()
    homotopy_system_solvable(x, zero_map(x, x), identity_map(x))


def _homotopy_oracle_with_a_shifted_map():
    x = circle_complex()
    homotopy_system_solvable(x, GradedMap(x, x, 1, {}), identity_map(x))


def _brute_homology_over_q():
    brute_homology_f2(ChainComplex(QQ, COCHAIN, {0: 1}))


def _brute_homology_past_its_budget():
    brute_homology_f2(ChainComplex(GF(2), COCHAIN, {0: 13}))


def _decomposition_of_a_chain_complex():
    Decomposition(ChainComplex(ZZ, "chain", {0: 1}))


def _decomposition_off_the_support():
    Decomposition(circle_complex())[5]


GUARDS = [
    (_psi_on_another_complex, ValidationError, "homotopy is attached to a different complex"),
    (_shifted_endomorphism, ValidationError, "verify_homotopy compares degree-0 endomorphisms"),
    (_map_between_other_complexes, ValidationError, "verify_homotopy compares degree-0 endomorphisms"),
    (_chain_map_check_of_a_shift, ValidationError, "chain-map check applies to shift-0 maps"),
    (_cone_of_a_chain_convention_pair, ValidationError, "mapping cone expects cochain presentation"),
    (_cone_of_a_shifted_map, ValidationError, "cone expects a degree-0 chain map"),
    (_map_between_rings, RingMismatch, "graded map between complexes over different rings"),
    (_map_between_conventions, ConventionMismatch, "graded map between mixed conventions"),
    (_decide_with_another_scalar_object, ValidationError, "alpha does not map the given scalar object into the given complex"),
    (_det_of_a_non_square_matrix, ShapeMismatch, "determinant of a non-square matrix"),
    (_inverse_of_a_non_square_matrix, ShapeMismatch, "inverse of a non-square matrix"),
    (_inverse_of_a_singular_matrix_over_q, NotInvertible, "singular matrix"),
    (_solve_with_a_short_right_hand_side, ShapeMismatch, "rhs 2x1 against 3x3"),
    (_spans_compared_across_ambients, ShapeMismatch, "ambient dimensions differ"),
    (_spans_intersected_across_ambients, ShapeMismatch, "ambient dimensions differ"),
    (_witness_moved_over_z, ValidationError, "witness failed verification: homotopy identity fails at degree -1"),
    (_witness_with_a_fraction_over_q, ValidationError, "witness failed verification: homotopy identity fails at degree -1"),
    (_witness_moved_over_f3, ValidationError, "witness failed verification: homotopy identity fails at degree -1"),
    (_float_into_q, ParseError, "cannot coerce 1.5 into Q"),
    (_float_into_f3, ParseError, "cannot coerce 1.5 into F_3"),
    (_half_into_f3, ParseError, "cannot coerce non-integer 1/2 into F_3"),
    (_float_into_z, ParseError, "cannot coerce 1.5 into Z"),
    (_brute_homology_of_a_chain_complex, ConventionMismatch, "oracle expects the cochain presentation"),
    (_homotopy_oracle_on_a_chain_complex, ConventionMismatch, "oracle expects the cochain presentation"),
    (_homotopy_oracle_with_a_shifted_map, ValidationError, "oracle compares degree-0 endomorphisms"),
    (_brute_homology_over_q, NotAField, "enumeration oracle works over F2 only"),
    (_brute_homology_past_its_budget, TooLarge, "total dimension 13 exceeds the enumeration budget 12"),
    (_decomposition_of_a_chain_complex, ConventionMismatch, "core operations expect the cochain presentation; convert first"),
    # A KeyError's text is the repr of its argument.
    (_decomposition_off_the_support, KeyError, "'no decomposition at degree 5'"),
]


@pytest.mark.parametrize("call, error, message", GUARDS, ids=[call.__name__.lstrip("_") for call, _, _ in GUARDS])
def test_guard_refuses_with_its_error_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
