"""``proptest`` checks every certificate against the homotopy oracle; over F2 it also
compares Betti numbers with the brute-force oracle without splitting a degree."""

import pytest

from eigenchain import cli
from eigenchain.decompose import Decomposition

SUMMARY = (
    "proptest: 20 complexes, 99 certificates, 99 homotopy-oracle checks, "
    "20 homology-oracle checks, 0 disagreements"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_f2_summary_line(capsys):
    code, out = run(capsys, "proptest", "--ring", "f2", "--trials", "20", "--seed", "0")
    assert code == 0
    assert out.splitlines() == [SUMMARY]


@pytest.mark.parametrize("ring, certificates", [("q", 94), ("f3", 114), ("z", 74)], ids=["q", "f3", "z"])
def test_every_certificate_meets_the_homotopy_oracle(capsys, ring, certificates):
    code, out = run(capsys, "proptest", "--ring", ring, "--trials", "20", "--seed", "0")
    assert code == 0
    assert out.splitlines() == [
        f"proptest: 20 complexes, {certificates} certificates, {certificates} homotopy-oracle checks, "
        "0 homology-oracle checks, 0 disagreements"
    ]


def test_the_homology_oracle_comparison_splits_no_degree(monkeypatch, capsys):
    # With no pairs to certify, every analysis left is the oracle comparison's.
    splits = []
    original = Decomposition._split
    monkeypatch.setattr(Decomposition, "_split", lambda dec, n: splits.append(n) or original(dec, n))
    monkeypatch.setattr(cli, "alpha_variants", lambda f, rng: iter(()))
    code, out = run(capsys, "proptest", "--ring", "f2", "--trials", "20", "--seed", "0")
    assert code == 0
    assert out.endswith(", 0 disagreements\n")
    assert ", 0 certificates," in out and ", 0 homology-oracle checks," not in out
    assert splits == []

