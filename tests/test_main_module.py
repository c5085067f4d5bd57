"""``python -m eigenchain.cli`` runs the command line and exits with its code."""

import runpy
import sys

import pytest

from eigenchain.formats import bundled_path


# runpy warns when the test session has imported eigenchain.cli already.
@pytest.mark.filterwarnings("ignore:'eigenchain.cli' found in sys.modules:RuntimeWarning")
def test_running_the_module_as_main_exits_with_mains_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["eigenchain", "homology", str(bundled_path("s1_complex.json"))])
    with pytest.raises(SystemExit) as caught:
        runpy.run_module("eigenchain.cli", run_name="__main__")
    assert caught.value.code == 0
    assert capsys.readouterr().out == "H_0: Z\nH_1: Z\n"
