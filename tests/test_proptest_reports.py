"""Each comparison ``proptest`` makes reports a disagreement as a line, a count and exit code 1.

Every test replaces one name that ``cli`` looked up with a version that
disagrees with the pipeline, so the report branch runs instead of a
traceback.
"""

import re

import pytest

from eigenchain import cli, scalar_object
from eigenchain.oracle import OracleReport


def _other_homology(original):
    return lambda f, max_total_dim: OracleReport(ranks={99: 1})


def _certificate_of_a_point(original):
    return lambda f: original(scalar_object(f.ring, {0: 1}))


def _negated_oracle(original):
    def solvable(*args):
        return OracleReport(solvable=not original(*args).solvable)

    return solvable


def _always_contractible(original):
    return lambda x: (True, None)


CASES = [
    ("f2", "brute_homology_f2", _other_homology, r"homology oracle disagreement: \{.*\} vs \{99: 1\}"),
    (
        "q",
        "certify_homology_eigenvalue",
        _certificate_of_a_point,
        r"certify and decide write different certificates for the canonical pair",
    ),
    (
        "q",
        "homotopy_system_solvable",
        _negated_oracle,
        r"verdict/oracle disagreement on variant \w+: (Eigenvalue vs solvable=False|NotEigenvalue vs solvable=True)",
    ),
    ("q", "is_contractible", _always_contractible, r"NotEigenvalue but contractible cone on \w+"),
]


@pytest.mark.parametrize("ring, name, disagreeing, line", CASES, ids=[case[1] for case in CASES])
def test_a_disagreement_is_reported(monkeypatch, capsys, ring, name, disagreeing, line):
    monkeypatch.setattr(cli, name, disagreeing(getattr(cli, name)))
    code = cli.main(["proptest", "--ring", ring, "--trials", "6", "--seed", "0"])
    out = capsys.readouterr().out.splitlines()
    reports = [text for text in out if text.startswith("[trial ")]
    assert reports and all(re.fullmatch(rf"\[trial \d+\] {line}", text) for text in reports), out
    summary = re.fullmatch(r"proptest: 6 complexes, .*, (\d+) disagreements", out[-1])
    assert summary and int(summary.group(1)) == len(reports) >= 1
    assert code == 1
