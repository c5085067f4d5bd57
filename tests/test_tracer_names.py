"""The benchmark tracer wraps eigenchain functions by name; each name must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    # Load the tracer without importing the benchmark package or writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"eigenchain.{layer}"), name, None))
    ]
    assert not missing, f"perfbench/tracing.py wraps names eigenchain no longer defines: {missing}"
