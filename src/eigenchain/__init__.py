"""Exact homological algebra kernel.

Bounded complexes of free modules over Q, F_p, or Z; per-degree
decompositions into cycle complements and differential images; mapping
cones; explicit null-homotopies; and machine-checkable certificates that
a zero-differential complex realizes the homology of another complex.
"""

from .rings import GF, QQ, ZZ, PrimeField, ring_from_tag
from .matrix import Matrix, block_diag, hstack, vstack
from .linalg import (
    SubspaceBasis,
    complement_basis,
    det,
    image_basis,
    intersect,
    inverse,
    kernel_basis,
    rank,
    rref,
    smith_normal_form,
    solve_matrix,
    spans_equal,
)
from .complexes import (
    ChainComplex,
    GradedMap,
    convert_convention,
    identity_map,
    scalar_object,
    validate_chain_map,
    validate_complex,
    verify_homotopy,
    zero_map,
)
from .decompose import canonical_alpha, decompose, homology
from .cones import construct_null_homotopy, is_contractible, mapping_cone
from .certify import analyze_homotopy_blocks, certify_homology_eigenvalue, decide_eigenvalue
from .oracle import brute_homology_f2, homotopy_system_solvable

__all__ = [name for name in dir() if not name.startswith("_")]
