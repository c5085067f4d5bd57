"""Span tracer that wraps eigenchain's public functions from outside.

Each listed function is replaced, in every ``eigenchain.*`` module namespace
that binds it, by a wrapper recording one span: name, start, end, parent
span and op id.  Calls from one eigenchain module into another are caught
too, because they go through the replaced module globals.
``Matrix.__matmul__`` is wrapped on the class.  Spans stay in memory in
flat arrays and are written once, when the run ends.

Counts are taken at the same boundaries, after the wrapped call returns.
The time spent taking them and keeping the books is subtracted from the
parent span, so self times stay close to those of an untraced run.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from array import array
from fractions import Fraction
from time import perf_counter

LAYERS = {
    "linalg": (
        "rref", "smith_normal_form", "solve_matrix", "kernel_basis", "image_basis",
        "complement_basis", "inverse", "det", "intersect", "rank",
    ),
    "complexes": ("validate_complex", "validate_chain_map"),
    "decompose": ("decompose", "homology", "canonical_alpha"),
    "cones": ("mapping_cone", "construct_null_homotopy", "verify_homotopy", "is_contractible"),
    "certify": ("decide_eigenvalue", "certify_homology_eigenvalue"),
    "formats": (
        "certificate_to_payload", "canonical_dumps", "reverify_certificate",
        "complex_from_payload", "homotopy_from_payload", "load_complex",
    ),
    "simplicial": ("simplicial_to_chain",),
    "cli": ("main",),
}
MATMUL = "matrix.matmul"
SPAN_NAMES = [MATMUL] + [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _max_bits(*matrices) -> int:
    best = 0
    for m in matrices:
        for row in m.data:
            for v in row:
                if type(v) is Fraction:
                    b = max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                else:
                    b = abs(v).bit_length()
                best = max(best, b)
    return best


class Tracer:
    """Records spans and per-layer counts while installed."""

    def __init__(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_excluded = array("d")  # tracer time inside the span, outside its children
        self.stack: list[int] = []
        self.op = -1
        self.counts = {
            "matrix.matmul.mults": 0,
            "matrix.matmul.nonzero_products": 0,
            "linalg.elim_cells": 0,
            "linalg.rref.max_bits": 0,
            "linalg.smith_normal_form.max_bits": 0,
            "cones.is_contractible.true": 0,
            "certify.outer_calls": 0,
            "certify.positive": 0,
            "formats.bytes_in": 0,
            "formats.bytes_out": 0,
        }
        self._certify_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- counts taken after a call returns -------------------------------

    def _count_matmul(self, args, result):
        a, b = args
        c = self.counts
        c["matrix.matmul.mults"] += a.rows * a.cols * b.cols
        if a.rows and b.cols:
            # a product is nonzero-by-nonzero when a nonzero of a's column k
            # meets a nonzero of b's row k
            col_nnz = [sum(1 for v in col if v) for col in zip(*a.data)]
            row_nnz = [sum(1 for v in row if v) for row in b.data]
            c["matrix.matmul.nonzero_products"] += sum(x * y for x, y in zip(col_nnz, row_nnz))

    def _count_rref(self, args, result):
        a = args[0]
        self.counts["linalg.elim_cells"] += a.rows * a.cols
        key = "linalg.rref.max_bits"
        self.counts[key] = max(self.counts[key], _max_bits(result.echelon, result.transform))

    def _count_snf(self, args, result):
        a = args[0]
        self.counts["linalg.elim_cells"] += a.rows * a.cols
        key = "linalg.smith_normal_form.max_bits"
        self.counts[key] = max(self.counts[key], _max_bits(result.u, result.v, result.u_inv, result.s))

    def _count_contractible(self, args, result):
        self.counts["cones.is_contractible.true"] += bool(result[0])

    def _count_dumps(self, args, result):
        self.counts["formats.bytes_out"] += len(result.encode("utf-8"))

    def _count_load(self, args, result):
        self.counts["formats.bytes_in"] += os.path.getsize(args[0])

    def _count_certificate(self, result):
        self.counts["certify.outer_calls"] += 1
        self.counts["certify.positive"] += result.verdict == "Eigenvalue"

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, count=None, certify_layer=False):
        nid = SPAN_NAMES.index(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            w0 = perf_counter()
            sid = len(self.span_name)
            parent = stack[-1] if stack else -1
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_excluded.append(0.0)
            stack.append(sid)
            outer = certify_layer and self._certify_depth == 0
            self._certify_depth += certify_layer
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._certify_depth -= certify_layer
                self.span_start[sid] = t0
                self.span_end[sid] = t1
            if outer:
                self._count_certificate(result)
            if count is not None:
                count(args, result)
            if parent >= 0:
                self.span_excluded[parent] += (t0 - w0) + (perf_counter() - t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace the listed functions in every loaded eigenchain module."""
        from eigenchain.matrix import Matrix

        counters = {
            "linalg.rref": self._count_rref,
            "linalg.smith_normal_form": self._count_snf,
            "cones.is_contractible": self._count_contractible,
            "formats.canonical_dumps": self._count_dumps,
            "formats.load_complex": self._count_load,
        }
        modules = [m for n, m in sys.modules.items() if n == "eigenchain" or n.startswith("eigenchain.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"eigenchain.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self._wrap(name, original, counters.get(name), certify_layer=layer == "certify")
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._restore.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
        original = Matrix.__matmul__
        self._restore.append((Matrix, "__matmul__", original))
        Matrix.__matmul__ = self._wrap(MATMUL, original, self._count_matmul)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def per_function(self) -> dict[str, dict]:
        """Calls and self seconds per span name; self time excludes child spans."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(durations)
        for sid, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += durations[sid]
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for sid, nid in enumerate(self.span_name):
            entry = out[SPAN_NAMES[nid]]
            entry["calls"] += 1
            entry["self_s"] += durations[sid] - child[sid] - self.span_excluded[sid]
        return out

    def write(self, path):
        """Write every span, column by column, as gzipped JSON."""
        doc = {
            "names": SPAN_NAMES,
            "columns": ["name", "parent", "op", "start", "end"],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
