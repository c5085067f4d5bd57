"""The exact checks, the certificate reader, writer and checker, and the oracles stay clear of the analysis.

Read from the source with ``ast``: every import of an ``eigenchain``
module, followed through the modules it reaches, so an indirect edge
counts as much as a direct one.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

from eigenchain import complexes, cones

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eigenchain"
ANALYSIS = {"certify", "cones", "decompose"}


@cache
def imported(module: str) -> frozenset:
    """The package modules that ``module``'s source imports directly."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eigenchain."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("eigenchain."))
    return frozenset(names)


def reached(module: str) -> set:
    seen, todo = set(), [module]
    while todo:
        for name in imported(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_complexes_reaches_only_errors_matrix_rings_and_the_checker():
    # The checker holds the readers' size cap, MAX_RANK, which complexes re-exports.
    assert reached("complexes") == {"check", "errors", "matrix", "rings"}


def test_the_certificate_checker_reaches_only_errors_and_rings():
    assert reached("check") <= {"errors", "rings"}


@pytest.mark.parametrize(
    "module, forbidden",
    [("formats", ANALYSIS | {"linalg"}), ("oracle", ANALYSIS)],
)
def test_no_analysis_module_is_reached(module, forbidden):
    assert not reached(module) & forbidden, sorted(reached(module) & forbidden)


def test_cones_reexports_the_homotopy_check_it_builds_witnesses_for():
    assert cones.Homotopy is complexes.Homotopy
    assert cones.verify_homotopy is complexes.verify_homotopy
