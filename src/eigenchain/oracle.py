"""Independent brute-force oracles used to cross-check the main pipeline.

Neither oracle touches the decomposition or cone internals: the module
imports only ``complexes``, ``matrix``, ``rings``, ``errors`` and the
exact solver ``linalg.solve_matrix``.  The F2 homology oracle counts
kernel and image sizes by enumerating bitmask vectors; the homotopy
oracle assembles the degreewise homotopy identity into one linear system
over the ring and hands it to the exact solver, which over Z returns
only integral solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import COCHAIN, ChainComplex, GradedMap, Homotopy
from .errors import ConventionMismatch, NotAField, TooLarge, ValidationError
from .linalg import solve_matrix
from .matrix import Matrix
from .rings import GF


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle run: homology ranks, or solvability and a witness."""

    ranks: Optional[dict[int, int]] = None
    solvable: Optional[bool] = None
    homotopy: Optional[Homotopy] = None


def _row_masks(m: Matrix) -> list[int]:
    masks = []
    for row in m.data:
        acc = 0
        for j, v in enumerate(row):
            if v % 2:
                acc |= 1 << j
        masks.append(acc)
    return masks


def _apply_f2(rows: list[int], v: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        if (row & v).bit_count() & 1:
            out |= 1 << i
    return out


def brute_homology_f2(f: ChainComplex, max_total_dim: int = 12) -> OracleReport:
    """Homology ranks over F2 by exhausting every vector of every degree.

    Kernels are counted by direct membership tests, images by collecting
    the full image set; ranks are the base-2 logs of those counts.  No
    elimination is involved anywhere.
    """
    if f.convention != COCHAIN:
        raise ConventionMismatch("oracle expects the cochain presentation")
    if f.ring != GF(2):
        raise NotAField("enumeration oracle works over F2 only")
    total = f.total_dim()
    if total > max_total_dim:
        raise TooLarge(f"total dimension {total} exceeds the enumeration budget {max_total_dim}")
    ranks = {}
    for n in f.degrees():
        dim = f.rank(n)
        out_rows = _row_masks(f.diff(n))
        kernel_count = sum(1 for v in range(1 << dim) if _apply_f2(out_rows, v) == 0)
        in_dim = f.rank(n - 1)
        in_rows = _row_masks(f.diff(n - 1))
        image = {_apply_f2(in_rows, w) for w in range(1 << in_dim)}
        kernel_rank = kernel_count.bit_length() - 1
        image_rank = len(image).bit_length() - 1
        ranks[n] = kernel_rank - image_rank
    return OracleReport(ranks=ranks)


def homotopy_system_solvable(x: ChainComplex, f: GradedMap, g: GradedMap) -> OracleReport:
    """Decide whether some homotopy from ``f`` to ``g`` exists on ``x``.

    The unknowns are all entries of all homotopy blocks; every entry of
    the identity ``f - g = d∘psi + psi∘d`` at every degree becomes one
    linear equation.  The assembled system is solved exactly, over Z in
    integers; a returned witness is repackaged as a :class:`Homotopy`.
    """
    if x.convention != COCHAIN:
        raise ConventionMismatch("oracle expects the cochain presentation")
    ring = x.ring
    for m in (f, g):
        if m.source != x or m.target != x or m.degree_shift != 0:
            raise ValidationError("oracle compares degree-0 endomorphisms")
    degrees = x.degrees()
    if not degrees:
        return OracleReport(solvable=True, homotopy=Homotopy(x, {}))
    # Index the unknown entries of each candidate block psi^n : X_n -> X_{n-1}.
    offsets = {}
    total = 0
    for n in degrees:
        rows, cols = x.rank(n - 1), x.rank(n)
        if rows and cols:
            offsets[n] = total
            total += rows * cols
    equations = []
    rhs = []
    zero = ring.normalize(0)
    for n in degrees:
        d_in = x.diff(n - 1)
        d_out = x.diff(n)
        target = f.block(n) - g.block(n)
        rn = x.rank(n)
        rn_m1 = x.rank(n - 1)
        rn_p1 = x.rank(n + 1)
        for i in range(rn):
            for j in range(rn):
                row = [zero] * total
                # (d_in @ psi^n)[i, j] = sum_k d_in[i, k] psi^n[k, j]
                if n in offsets:
                    base = offsets[n]
                    for k in range(rn_m1):
                        coeff = d_in.data[i][k]
                        if coeff != 0:
                            row[base + k * rn + j] = coeff
                # (psi^{n+1} @ d_out)[i, j] = sum_l psi^{n+1}[i, l] d_out[l, j]
                if (n + 1) in offsets:
                    base = offsets[n + 1]
                    for l in range(rn_p1):
                        coeff = d_out.data[l][j]
                        if coeff != 0:
                            idx = base + i * rn_p1 + l
                            row[idx] = ring.reduce(row[idx] + coeff)
                equations.append(row)
                rhs.append(target.data[i][j])
    system = Matrix._raw(ring, len(equations), total, tuple(map(tuple, equations)))
    solution = solve_matrix(system, Matrix.column(ring, rhs))
    if solution is None:
        return OracleReport(solvable=False)
    flat = [solution.data[i][0] for i in range(total)]
    blocks = {}
    for n, base in offsets.items():
        rows, cols = x.rank(n - 1), x.rank(n)
        entries = [[flat[base + k * cols + j] for j in range(cols)] for k in range(rows)]
        blocks[n] = Matrix(ring, entries, cols=cols)
    return OracleReport(solvable=True, homotopy=Homotopy(x, blocks))
