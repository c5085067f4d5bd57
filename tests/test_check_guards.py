"""Each exact check refuses input outside its contract with a named error, not a wrong answer."""

import re

import pytest

from eigenchain import (
    QQ,
    ZZ,
    ChainComplex,
    GradedMap,
    Matrix,
    identity_map,
    mapping_cone,
    scalar_object,
    validate_chain_map,
    verify_homotopy,
    zero_map,
)
from eigenchain.certify import decide_eigenvalue
from eigenchain.cones import Homotopy
from eigenchain.errors import ConventionMismatch, NotInvertible, RingMismatch, ShapeMismatch, ValidationError
from eigenchain.linalg import SubspaceBasis, det, intersect, inverse, solve_matrix, spans_equal
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
]


@pytest.mark.parametrize("call, error, message", GUARDS, ids=[call.__name__.lstrip("_") for call, _, _ in GUARDS])
def test_guard_refuses_with_its_error_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
