"""One SHA-256 over every output of the benchmark's random workloads.

The benchmark's ``random-z`` and ``random-q`` workloads certify and decide
every ``alpha_variants`` pair of a fixed corpus of random complexes, each
in a seeded basis.  This digest is fed, in order, with the UTF-8
``repr(op.settle(op.run()))`` of every op, in set-up order, of random-z
at seed 1 and at seed 1000, then random-q at seed 1 and at seed 1000
(1680 ops).  Those outputs are certificate bytes, so a change that moves
this digest moved a benchmark output: a PR that claims unchanged outputs
can be held to it.  ``perfbench/workloads.py`` is only imported here.

The ``simplicial-z`` and ``reverify`` workloads are pinned the same way,
each by its own digest over seeds 1 and 1000 (264 and 228 ops).  A
simplicial-z op prints the path of the certificate it writes, so the
run's scratch directory is masked as ``<tmp>`` before hashing.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

OUTPUTS_SHA256 = "f8ff9dd1e441104ee20a4bd62b3207f9aba66e9906fa315473b9309f97fea91d"
SIMPLICIAL_Z_SHA256 = "0bb62af9fd2e638d8070291227b73ea74de48c9c54d1a605e52c998f89af34aa"
REVERIFY_SHA256 = "7dcc1d17451cef4aeb9321c544d417eeafefc34fb924faa5ded01cde8e2b9a2f"


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


def _masked_digest(workloads, name, tmp_path):
    """SHA-256 over the outputs of ``name`` at seeds 1 and 1000, ``tmp_path`` masked, and the op count."""
    digest = hashlib.sha256()
    count = 0
    for seed in (1, 1000):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        for op in workloads.WORKLOADS[name](seed, workdir, lambda: None):
            digest.update(repr(op.settle(op.run())).replace(str(workdir), "<tmp>").encode())
            count += 1
    return digest.hexdigest(), count


def test_simplicial_workload_outputs_are_pinned(monkeypatch, tmp_path):
    assert _masked_digest(_load_workloads(monkeypatch), "simplicial-z", tmp_path) == (SIMPLICIAL_Z_SHA256, 264)


def test_reverify_workload_outputs_are_pinned(monkeypatch, tmp_path):
    assert _masked_digest(_load_workloads(monkeypatch), "reverify", tmp_path) == (REVERIFY_SHA256, 228)
