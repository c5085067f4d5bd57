"""Fail when tier-1 leaves a line of ``src/eigenchain/*.py`` unrun that the ledger does not list, or runs one it lists.

Usage, from the root of the repository (stdlib only, besides the pytest
and hypothesis that tier-1 needs):

    python ci/line_ledger.py

It exits 1, printing each difference, when tier-1 fails, when a line it
leaves unrun is not listed in ``ci/unrun_lines.txt``, or when a listed line
now runs.  Each listed line reads ``file::function::stripped text``.

The line trace starts before ``eigenchain`` is imported, so module and
class bodies count.  A line is executable when some code object of its
file names it in ``co_lines()``; a function's own ``def`` line counts as
run when the function is called.  The ledger keys a line by file,
function and stripped source text, not by number, so an edit elsewhere in
a file does not move it; a key that occurs twice is listed twice.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eigenchain"
LEDGER = Path(__file__).resolve().parent / "unrun_lines.txt"


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def executable_lines(path: Path) -> dict:
    """``{line number: qualified name of its innermost code object}`` for every executable line of ``path``."""
    owner = {}
    for code in _code_objects(compile(path.read_text(encoding="utf-8"), str(path), "exec")):
        for _, _, line in code.co_lines():
            if line:  # None: no line; 0: a module's entry point
                owner[line] = code.co_qualname  # inner code objects come later and win
    return owner


def run_tier1() -> tuple[int, set]:
    """Run tier-1 under a line trace; returns pytest's exit code and the ``(file, line)`` pairs run in the package."""
    package = str(PACKAGE)
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        seen.add((code.co_filename, code.co_firstlineno))
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imports no eigenchain module

    if any(name.startswith("eigenchain") for name in sys.modules):
        raise SystemExit("line ledger: eigenchain was imported before the trace started")
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, seen


def unrun_keys(seen: set) -> Counter:
    keys = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line, function in sorted(executable_lines(path).items()):
            if (str(path), line) not in seen:
                keys[f"{path.name}::{function}::{text[line - 1].strip()}"] += 1
    return keys


def read_ledger() -> Counter:
    lines = LEDGER.read_text(encoding="utf-8").splitlines()
    return Counter(line for line in lines if line and not line.startswith("#"))


def main() -> int:
    code, seen = run_tier1()
    if code != 0:
        print(f"line ledger: tier-1 exited {code}")
        return 1
    unrun = unrun_keys(seen)
    listed = read_ledger()
    new, gone = unrun - listed, listed - unrun
    for key in sorted(new.elements()):
        print(f"unrun, not in the ledger: {key}")
    for key in sorted(gone.elements()):
        print(f"in the ledger, but now run: {key}")
    print(f"line ledger: {sum(unrun.values())} unrun lines, {sum(listed.values())} listed")
    return 1 if new or gone else 0


if __name__ == "__main__":
    raise SystemExit(main())
