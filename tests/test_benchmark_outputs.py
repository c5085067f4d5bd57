"""One SHA-256 over every output of the benchmark's random workloads.

The benchmark's ``random-z`` and ``random-q`` workloads certify and decide
every ``alpha_variants`` pair of a fixed corpus of random complexes, each
in a seeded basis.  This digest is fed, in order, with the UTF-8
``repr(op.settle(op.run()))`` of every op, in set-up order, of random-z
at seed 1 and at seed 1000, then random-q at seed 1 and at seed 1000
(1680 ops).  Those outputs are certificate bytes, so a change that moves
this digest moved a benchmark output: a PR that claims unchanged outputs
can be held to it.  ``perfbench/workloads.py`` is only imported here.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

OUTPUTS_SHA256 = "f8ff9dd1e441104ee20a4bd62b3207f9aba66e9906fa315473b9309f97fea91d"


def _load_workloads(monkeypatch):
    # Its helpers are top-level modules next to it; no bytecode is written there.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def test_random_workload_outputs_are_pinned(monkeypatch, tmp_path):
    workloads = _load_workloads(monkeypatch)
    digest = hashlib.sha256()
    count = 0
    for name in ("random-z", "random-q"):
        for seed in (1, 1000):
            for op in workloads.WORKLOADS[name](seed, tmp_path, lambda: None):
                digest.update(repr(op.settle(op.run())).encode())
                count += 1
    assert count == 1680
    assert digest.hexdigest() == OUTPUTS_SHA256
