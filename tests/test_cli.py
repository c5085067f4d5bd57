"""Command-line behavior: outputs, files, and exit codes."""

import json
import os
import shutil
from itertools import combinations
from time import perf_counter

import pytest

from eigenchain.cli import main
from eigenchain.decompose import Decomposition
from eigenchain.errors import ParseError
from eigenchain.formats import bundled_path, canonical_dumps, load_complex, reverify_certificate
from test_golden_analysis import RP2, _klein_bottle


@pytest.fixture
def workdir(tmp_path):
    for name in (
        "s1_complex.json",
        "s1_lambda.json",
        "s1_alpha.json",
        "s1_psi.json",
        "s1_simplicial.json",
    ):
        shutil.copy(bundled_path(name), tmp_path / name)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_command(workdir, capsys):
    code, out, _ = run(capsys, "homology", workdir / "s1_complex.json")
    assert code == 0
    assert out.splitlines() == ["H_0: Z", "H_1: Z"]


def test_homology_accepts_simplicial_input(workdir, capsys):
    code, out, _ = run(capsys, "homology", workdir / "s1_simplicial.json")
    assert code == 0
    assert out.splitlines() == ["H_0: Z", "H_1: Z"]


def test_a_float_vertex_index_exits_2_asking_for_an_integer(tmp_path, capsys):
    path = tmp_path / "float_vertex.json"
    path.write_text(json.dumps({"vertices": 2, "facets": [[0.0, 1]]}))
    code, out, err = run(capsys, "homology", path)
    assert (code, out) == (2, "")
    assert err == "error: vertex index must be a JSON integer, got 0.0\n"

@pytest.mark.parametrize(
    "vertices, facets, h1",
    [(6, RP2, "H_1: Z/2"), (9, _klein_bottle(), "H_1: Z + Z/2")],
    ids=["rp2", "klein"],
)
def test_homology_prints_torsion_without_splitting_a_degree(tmp_path, capsys, monkeypatch, vertices, facets, h1):
    splits = []
    split = Decomposition._split
    monkeypatch.setattr(Decomposition, "_split", lambda self, n: splits.append(n) or split(self, n))
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"vertices": vertices, "facets": facets}))
    code, out, err = run(capsys, "homology", path)
    assert code == 0, err
    assert out.splitlines() == ["H_0: Z", h1, "H_2: 0"]
    assert splits == []


def test_decompose_command(workdir, capsys):
    code, out, _ = run(capsys, "decompose", workdir / "s1_complex.json")
    assert code == 0
    assert "degree 0: rank 3 = complement 1 (cycles 1 + transversal 0) + image 2" in out


def test_certify_canonical(workdir, capsys):
    code, out, _ = run(capsys, "certify", workdir / "s1_complex.json")
    assert code == 0
    assert "verdict: Eigenvalue" in out
    cert = json.loads((workdir / "s1_complex.cert.json").read_text())
    assert cert["lambda_ranks"] == [{"degree": 0, "rank": 1}, {"degree": 1, "rank": 1}]
    assert reverify_certificate(cert)


def test_certify_an_acyclic_complex_prints_the_zero_object(tmp_path, capsys):
    acyclic = {
        "ring": "Z",
        "convention": "cochain",
        "degrees": [{"degree": 0, "rank": 1}, {"degree": 1, "rank": 1}],
        "diffs": [{"from_degree": 0, "entries": [["1"]]}],
    }
    (tmp_path / "acyclic.json").write_text(canonical_dumps(acyclic))
    code, out, _ = run(capsys, "certify", tmp_path / "acyclic.json")
    assert code == 0
    assert out.splitlines()[:2] == ["verdict: Eigenvalue", "scalar object: zero object"]


def test_certify_explicit_pair(workdir, capsys):
    code, out, _ = run(
        capsys,
        "certify",
        workdir / "s1_complex.json",
        "--lambda",
        workdir / "s1_lambda.json",
        "--alpha",
        workdir / "s1_alpha.json",
    )
    assert code == 0
    assert "verdict: Eigenvalue" in out


def test_certify_rank_mismatch_exits_one(workdir, capsys):
    bad_lambda = {
        "ring": "Z",
        "convention": "chain",
        "degrees": [{"degree": 0, "rank": 2}, {"degree": 1, "rank": 1}],
        "diffs": [],
    }
    (workdir / "bad_lambda.json").write_text(canonical_dumps(bad_lambda))
    bad_alpha = {
        "ring": "Z",
        "convention": "chain",
        "degree_shift": 0,
        "blocks": [
            {"degree": 1, "entries": [["1"], ["1"], ["1"]]},
            {"degree": 0, "entries": [["1", "0"], ["0", "0"], ["0", "0"]]},
        ],
    }
    (workdir / "bad_alpha.json").write_text(canonical_dumps(bad_alpha))
    code, out, _ = run(
        capsys,
        "certify",
        workdir / "s1_complex.json",
        "--lambda",
        workdir / "bad_lambda.json",
        "--alpha",
        workdir / "bad_alpha.json",
    )
    assert code == 1
    assert "RankMismatch at degree 0" in out
    cert = json.loads((workdir / "s1_complex.cert.json").read_text())
    assert cert["verdict"] == "NotEigenvalue"
    assert cert["failure_reason"]["kind"] == "RankMismatch"


def test_cone_then_verify_homotopy(workdir, capsys):
    code, out, _ = run(
        capsys,
        "cone",
        workdir / "s1_complex.json",
        workdir / "s1_lambda.json",
        workdir / "s1_alpha.json",
        "-o",
        workdir / "cone.json",
    )
    assert code == 0
    doc = load_complex(workdir / "cone.json")
    assert doc.complex.ranks == {-2: 1, -1: 4, 0: 3}
    code, out, _ = run(capsys, "verify-homotopy", workdir / "cone.json", workdir / "s1_psi.json")
    assert code == 0
    assert out.strip() == "ok"


def test_certify_into_a_device_prints_the_verdict(workdir, capsys):
    code, out, err = run(capsys, "certify", workdir / "s1_complex.json", "-o", os.devnull)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "verdict: Eigenvalue"


@pytest.mark.parametrize("command", ["certify", "cone"])
def test_output_into_a_missing_directory_exits_two(workdir, capsys, command):
    inputs = [workdir / "s1_complex.json"]
    if command == "cone":
        inputs += [workdir / "s1_lambda.json", workdir / "s1_alpha.json"]
    target = workdir / "no-such-dir" / "out.json"
    code, out, err = run(capsys, command, *inputs, "-o", target)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err and "Traceback" not in err


def test_verify_homotopy_detects_tampering(workdir, capsys):
    run(
        capsys,
        "cone",
        workdir / "s1_complex.json",
        workdir / "s1_lambda.json",
        workdir / "s1_alpha.json",
        "-o",
        workdir / "cone.json",
    )
    psi = json.loads((workdir / "s1_psi.json").read_text())
    psi["blocks"][1]["entries"][0][3] = "1"
    (workdir / "tampered.json").write_text(canonical_dumps(psi))
    code, out, _ = run(capsys, "verify-homotopy", workdir / "cone.json", workdir / "tampered.json")
    assert code == 1
    assert "FAILED" in out


@pytest.mark.parametrize("shift, code, out", [(7, 2, ""), (1, 0, "ok\n")], ids=["wrong", "chain-homotopy"])
def test_verify_homotopy_reads_the_declared_degree_shift(workdir, capsys, shift, code, out):
    # In chain convention a homotopy raises the degree by one; any other shift is a parse error.
    cone = workdir / "cone.json"
    run(capsys, "cone", *(workdir / n for n in ("s1_complex.json", "s1_lambda.json", "s1_alpha.json")), "-o", cone)
    _edit(workdir, "s1_psi.json", _set(("degree_shift",), shift))
    result = run(capsys, "verify-homotopy", cone, workdir / "s1_psi.json")
    assert result[:2] == (code, out)
    if code == 2:
        assert "'degree_shift'" in result[2]


def test_verify_homotopy_with_explicit_endpoints(workdir, capsys):
    # f = g = 0 admits the zero homotopy; check the --f/--g flags wire up.
    zero_f = {
        "ring": "Z",
        "convention": "chain",
        "degree_shift": 0,
        "blocks": [],
    }
    (workdir / "zero_map.json").write_text(canonical_dumps(zero_f))
    empty_psi = {"ring": "Z", "convention": "chain", "blocks": []}
    (workdir / "zero_psi.json").write_text(canonical_dumps(empty_psi))
    code, out, _ = run(
        capsys,
        "verify-homotopy",
        workdir / "s1_complex.json",
        workdir / "zero_psi.json",
        "--f",
        workdir / "zero_map.json",
        "--g",
        workdir / "zero_map.json",
    )
    assert code == 0
    assert out.strip() == "ok"


@pytest.mark.parametrize("flag", ["--f", "--g"])
def test_verify_homotopy_endpoints_must_be_graded_maps(workdir, capsys, flag):
    # A complex file is no map: it used to read as the zero map.
    cone = workdir / "cone.json"
    run(capsys, "cone", *(workdir / n for n in ("s1_complex.json", "s1_lambda.json", "s1_alpha.json")), "-o", cone)
    code, out, err = run(
        capsys,
        "verify-homotopy",
        cone,
        workdir / "s1_psi.json",
        flag,
        workdir / "s1_complex.json",
    )
    assert code == 2
    assert out == ""
    assert "expected a graded map file" in err


def test_structural_error_exit_code(workdir, capsys):
    bad = {
        "ring": "Q",
        "convention": "cochain",
        "degrees": [{"degree": 0, "rank": 1}, {"degree": 1, "rank": 1}, {"degree": 2, "rank": 1}],
        "diffs": [
            {"from_degree": 0, "entries": [["1"]]},
            {"from_degree": 1, "entries": [["1"]]},
        ],
    }
    (workdir / "bad.json").write_text(canonical_dumps(bad))
    code, _, err = run(capsys, "homology", workdir / "bad.json")
    assert code == 2
    assert "error" in err


def test_decompose_names_a_torsion_degree_in_the_files_convention(tmp_path, capsys):
    # Chain degree 1 is cochain degree -1 inside; homology and certify already say 1.
    chain = {
        "ring": "Z",
        "convention": "chain",
        "degrees": [{"degree": 2, "rank": 1}, {"degree": 1, "rank": 1}],
        "diffs": [{"from_degree": 2, "entries": [["2"]]}],
    }
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(chain))
    assert run(capsys, "homology", path)[1].splitlines() == ["H_1: Z/2", "H_2: 0"]
    code, out, err = run(capsys, "decompose", path)
    assert (code, out) == (2, "")
    assert err == "error: submodule not saturated at degree 1: invariant factors [2]\n"


@pytest.mark.parametrize("command", ["cone", "certify"])
def test_a_failed_chain_map_square_is_named_in_the_files_convention(workdir, capsys, command):
    alpha = json.loads((workdir / "s1_alpha.json").read_text())
    for block in alpha["blocks"]:
        if block["degree"] == 1:
            block["entries"] = [["1"], ["0"], ["0"]]
    (workdir / "bad_alpha.json").write_text(canonical_dumps(alpha))
    pair = [workdir / "s1_lambda.json", workdir / "bad_alpha.json"]
    argv = pair if command == "cone" else ["--lambda", pair[0], "--alpha", pair[1]]
    code, out, err = run(capsys, command, workdir / "s1_complex.json", *argv, "-o", workdir / "out.json")
    assert (code, out) == (2, "")
    assert err == "error: not a chain map: square at degree 1 fails at entry (1, 0)\n"
    assert not (workdir / "out.json").exists()


def test_missing_file_is_structural(workdir, capsys):
    code, _, err = run(capsys, "homology", workdir / "nope.json")
    assert code == 2


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, b'{"degrees": [' + b"1" * 5000 + b"]}"],
    ids=["not-utf8", "nested-past-the-recursion-limit", "integer-past-the-digit-limit"],
)
def test_unreadable_files_exit_two_with_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "homology", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_usage_errors_exit_64(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 64
    code, _, err = run(capsys, "certify", "whatever.json", "--lambda", "x.json")
    assert code == 64
    assert "--alpha" in err
    for ring in ("f4", "f1", "f0"):
        code, _, err = run(capsys, "homology", "whatever.json", "--ring", ring)
        assert code == 64
        assert "not prime" in err and "Traceback" not in err
    for flag in ("--max-dim", "--trials"):
        for value in ("-1", "-3", "x"):
            code, out, err = run(capsys, "proptest", flag, value)
            assert code == 64
            assert "non-negative integer" in err and out == ""
    # Integer flags take ASCII digits 0-9 only, the rule of scalar text; --seed may start with '-'.
    bad = [("--trials", "١"), ("--max-dim", "١٢"), ("--trials", "1_0"), ("--seed", "1_0"), ("--seed", "١")]
    bad += [("--seed", "x"), ("--seed", "+5"), ("--ring", "f٢"), ("--ring", "f٥"), ("--ring", "f²")]
    for flag, value in bad:
        code, out, err = run(capsys, "proptest", flag, value)
        assert code == 64
        assert f"argument {flag}:" in err and out == "" and "Traceback" not in err


@pytest.mark.parametrize("p", ["318665857834031151167461", "3317044064679887385961981"], ids=["psi12", "psi13"])
def test_strong_pseudoprimes_are_refused_as_rings(workdir, capsys, p):
    code, out, err = run(capsys, "homology", workdir / "s1_simplicial.json", "--ring", f"f{p}")
    assert code == 64
    assert out == "" and p in err and "Traceback" not in err
    _edit(workdir, "s1_complex.json", _set(("ring",), {"Fp": int(p)}))
    code, out, err = run(capsys, "homology", workdir / "s1_complex.json")
    assert code == 2
    assert out == "" and err.startswith(f"error: {p} ")


RING_ARGV = {
    "homology": ["homology", "s1_complex.json"],
    "decompose": ["decompose", "s1_complex.json"],
    "cone": ["cone", "s1_complex.json", "s1_lambda.json", "s1_alpha.json", "-o", "out.json"],
    "certify": ["certify", "s1_complex.json", "-o", "out.json"],
}


@pytest.mark.parametrize("command", sorted(RING_ARGV))
def test_ring_flag_must_match_a_complex_file(workdir, capsys, command):
    # --ring chooses the ring of simplicial input; a complex file names its own.
    argv = [workdir / a if a.endswith(".json") else a for a in RING_ARGV[command]]
    code, out, err = run(capsys, *argv, "--ring", "f2")
    assert code == 2
    assert out == "" and "ring F2 differs from the file's ring Z" in err
    assert not (workdir / "out.json").exists()
    code, _, err = run(capsys, *argv, "--ring", "z")
    assert code == 0, err


def test_proptest_reproducible(capsys):
    code1, out1, _ = run(capsys, "proptest", "--ring", "f2", "--max-dim", "6", "--trials", "8", "--seed", "5")
    code2, out2, _ = run(capsys, "proptest", "--ring", "f2", "--max-dim", "6", "--trials", "8", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "0 disagreements" in out1


MISSING = object()
NON_INTEGERS = {"float": 2.7, "string": "x", "bool": True, "missing": MISSING}
INTEGER_FIELDS = [
    # (file edited, path to the object holding the field, field, command)
    ("s1_complex.json", ("degrees", 0), "degree", ["homology", "s1_complex.json"]),
    ("s1_complex.json", ("degrees", 0), "rank", ["homology", "s1_complex.json"]),
    ("s1_complex.json", ("diffs", 0), "from_degree", ["homology", "s1_complex.json"]),
    ("s1_alpha.json", (), "degree_shift", ["cone", "s1_complex.json", "s1_lambda.json", "s1_alpha.json"]),
    ("s1_alpha.json", ("blocks", 0), "degree", ["cone", "s1_complex.json", "s1_lambda.json", "s1_alpha.json"]),
    ("s1_psi.json", ("blocks", 0), "degree", ["verify-homotopy", "s1_complex.json", "s1_psi.json"]),
]


# A missing degree_shift means 0, so that one case is well formed.
NON_INTEGER_CASES = [
    pytest.param(name, path, field, argv, kind, id=f"{name}-{field}-{kind}")
    for name, path, field, argv in INTEGER_FIELDS
    for kind in NON_INTEGERS
    if (field, kind) != ("degree_shift", "missing")
]


@pytest.mark.parametrize("name, path, field, argv, kind", NON_INTEGER_CASES)
def test_non_integer_fields_are_structural_errors(workdir, capsys, name, path, field, argv, kind):
    payload = json.loads((workdir / name).read_text())
    item = payload
    for key in path:
        item = item[key]
    if NON_INTEGERS[kind] is MISSING:
        del item[field]
    else:
        item[field] = NON_INTEGERS[kind]
    (workdir / name).write_text(json.dumps(payload))
    code, out, err = run(capsys, *[workdir / a if a.endswith(".json") else a for a in argv])
    assert code == 2
    assert out == ""
    assert repr(field) in err


@pytest.mark.parametrize("edit", ["entries", "item"])
def test_malformed_complex_items_are_structural_errors(workdir, capsys, edit):
    payload = json.loads((workdir / "s1_complex.json").read_text())
    if edit == "entries":
        del payload["diffs"][0]["entries"]
    else:
        payload["degrees"][0] = 0
    (workdir / "s1_complex.json").write_text(json.dumps(payload))
    code, out, err = run(capsys, "homology", workdir / "s1_complex.json")
    assert code == 2
    assert out == ""
    assert "error" in err


def _edit(workdir, name, change):
    payload = json.loads((workdir / name).read_text())
    change(payload)
    (workdir / name).write_text(json.dumps(payload))


def _set(path, value):
    def change(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        if value is MISSING:
            del payload[last]
        else:
            payload[last] = value

    return change


COMPLEX_ARGV = ["homology", "s1_complex.json"]
CONE_ARGV = ["cone", "s1_complex.json", "s1_lambda.json", "s1_alpha.json"]
PSI_ARGV = ["verify-homotopy", "s1_complex.json", "s1_psi.json"]
SIMPLICIAL_ARGV = ["homology", "s1_simplicial.json"]
ZERO_D1 = {"from_degree": 1, "entries": [["0", "0", "0"]] * 3}
MALFORMED_INPUTS = [
    # (file edited, path of the edited value, new value, named field, command)
    pytest.param("s1_complex.json", ("diffs", 0, "entries", 1, 0), 1.5, "entries", COMPLEX_ARGV, id="float-entry"),
    pytest.param("s1_complex.json", ("degrees",), 3, "degrees", COMPLEX_ARGV, id="degrees-not-list"),
    pytest.param("s1_complex.json", ("diffs",), {"from_degree": 1}, "diffs", COMPLEX_ARGV, id="diffs-not-list"),
    pytest.param("s1_alpha.json", ("blocks",), 0, "blocks", CONE_ARGV, id="map-blocks-not-list"),
    pytest.param("s1_psi.json", ("blocks",), "none", "blocks", PSI_ARGV, id="homotopy-blocks-not-list"),
    pytest.param("s1_simplicial.json", ("vertices",), MISSING, "vertices", SIMPLICIAL_ARGV, id="vertices-missing"),
    pytest.param("s1_simplicial.json", ("vertices",), 3.0, "vertices", SIMPLICIAL_ARGV, id="vertices-float"),
    pytest.param("s1_simplicial.json", ("facets",), 7, "facets", SIMPLICIAL_ARGV, id="facets-not-list"),
    pytest.param("s1_simplicial.json", ("facets", 0), 1, "facets", SIMPLICIAL_ARGV, id="facet-not-list"),
    pytest.param("s1_complex.json", ("ring",), {"Fp": "abc"}, "Fp", COMPLEX_ARGV, id="ring-fp-string"),
    pytest.param("s1_complex.json", ("ring",), {"Fp": 7.9}, "Fp", COMPLEX_ARGV, id="ring-fp-float"),
    pytest.param("s1_complex.json", ("diffs",), [ZERO_D1, ZERO_D1], "from_degree", COMPLEX_ARGV, id="diff-degree-twice"),
]


@pytest.mark.parametrize("name, path, value, field, argv", MALFORMED_INPUTS)
def test_malformed_inputs_are_parse_errors_naming_the_field(workdir, capsys, name, path, value, field, argv):
    _edit(workdir, name, _set(path, value))
    code, out, err = run(capsys, *[workdir / a if a.endswith(".json") else a for a in argv])
    assert code == 2
    assert out == ""
    assert repr(field) in err


def test_float_entries_are_rejected_over_q(workdir, capsys):
    # Over Z a float entry already fails to parse; over Q "1.5" used to read as 3/2.
    def to_q(payload):
        payload["ring"] = "Q"
        payload["diffs"][0]["entries"][0][0] = 1.5

    _edit(workdir, "s1_complex.json", to_q)
    code, out, err = run(capsys, "homology", workdir / "s1_complex.json")
    assert code == 2
    assert out == ""
    assert "'entries'" in err and "1.5" in err


@pytest.mark.parametrize(
    "ring, bad",
    [("Q", "1/0"), ("Q", "1e9999999"), ("Z", "1.5"), ({"Fp": 5}, "x")],
    ids=["q", "q-exponent", "z", "f5"],
)
def test_bad_entry_strings_are_parse_errors_naming_the_field(workdir, capsys, ring, bad):
    def change(payload):
        payload["ring"] = ring
        payload["diffs"][0]["entries"][1][0] = bad

    _edit(workdir, "s1_complex.json", change)
    with pytest.raises(ParseError, match="diffs entry at from_degree 1"):
        load_complex(workdir / "s1_complex.json")
    start = perf_counter()
    code, out, err = run(capsys, "homology", workdir / "s1_complex.json")
    assert perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "diffs entry at from_degree 1" in err and repr(bad) in err


def test_cone_accepts_a_map_without_degree_shift(workdir, capsys):
    # A missing degree_shift reads as 0: the cone is the one of the full file.
    argv = [workdir / n for n in ("s1_complex.json", "s1_lambda.json", "s1_alpha.json")]
    assert run(capsys, "cone", *argv, "-o", workdir / "with_shift.json")[0] == 0
    _edit(workdir, "s1_alpha.json", _set(("degree_shift",), MISSING))
    code, _, err = run(capsys, "cone", *argv, "-o", workdir / "without_shift.json")
    assert code == 0, err
    assert (workdir / "without_shift.json").read_bytes() == (workdir / "with_shift.json").read_bytes()


@pytest.mark.parametrize(
    "payload",
    [
        {"ring": "Z", "convention": "chain", "degrees": [{"degree": 0, "rank": 10**9}], "diffs": []},
        {"vertices": 10**9, "facets": [[0, 1]]},
        {"vertices": 20, "facets": [list(range(20))]},
        {"vertices": 31, "facets": [list(t) for t in combinations(range(31), 3)]},
    ],
    ids=["rank", "vertices", "facet-size", "simplices"],
)
def test_input_past_the_size_cap_exits_two_at_once(tmp_path, capsys, payload):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    start = perf_counter()
    code, out, err = run(capsys, "homology", path)
    assert perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "size cap of 4096" in err


def _writes(name, payload):
    return lambda workdir: (workdir / name).write_text(json.dumps(payload))


def _edits(name, change):
    return lambda workdir: _edit(workdir, name, change)


def _certify_the_circle(workdir):
    assert main(["certify", str(workdir / "s1_complex.json")]) == 0


def _shift_by_one(alpha):
    # Shifted by one, lambda's degree 0 lands in F_1 and its degree 1 nowhere.
    alpha["degree_shift"] = 1
    alpha["blocks"] = [block for block in alpha["blocks"] if block["degree"] == 0]


INPUT_ARGV = ["homology", "input.json"]
PAIR_ARGV = ["certify", "s1_complex.json", "--lambda", "s1_lambda.json", "--alpha", "s1_alpha.json", "-o", "out.json"]
REFUSED_INPUTS = [
    # (files written or edited, command, error message)
    pytest.param(_writes("input.json", {"vertices": 3, "facets": [[]]}), INPUT_ARGV, "empty facet", id="empty-facet"),
    pytest.param(
        _writes("input.json", {"vertices": 3, "facets": [[0, 0, 1]]}),
        INPUT_ARGV,
        "facet [0, 0, 1] repeats a vertex",
        id="repeated-vertex",
    ),
    pytest.param(_writes("input.json", {"vertices": -1, "facets": []}), INPUT_ARGV, "negative vertex count", id="negative-vertices"),
    pytest.param(
        _writes("input.json", []), INPUT_ARGV, "{workdir}/input.json: expected a JSON object at top level", id="top-level-array"
    ),
    pytest.param(_writes("input.json", {}), INPUT_ARGV, "unrecognized JSON document", id="empty-object"),
    pytest.param(
        _writes("input.json", {
            "ring": "Z",
            "convention": "cochain",
            "degrees": [{"degree": 0, "rank": 1}, {"degree": 1, "rank": 1}],
            "diffs": [{"from_degree": 0, "entries": [["1", "1"]]}],
        }),
        INPUT_ARGV,
        "complex diffs entry at from_degree 0: expected a 1x1 matrix",
        id="differential-shape",
    ),
    pytest.param(
        _edits("s1_complex.json", _set(("convention",), "sideways")),
        COMPLEX_ARGV,
        "bad convention 'sideways'",
        id="bad-convention",
    ),
    pytest.param(
        _certify_the_circle,
        ["homology", "s1_complex.cert.json"],
        "expected a complex or simplicial file, found certificate",
        id="certificate-as-complex",
    ),
    pytest.param(
        _edits("s1_alpha.json", _set(("ring",), "Q")), PAIR_ARGV, "graded map ring differs from the complex ring", id="alpha-ring"
    ),
    pytest.param(
        _edits("s1_alpha.json", _set(("convention",), "cochain")),
        PAIR_ARGV,
        "graded map convention differs from the complex convention",
        id="alpha-convention",
    ),
    pytest.param(_edits("s1_alpha.json", _shift_by_one), PAIR_ARGV, "cone expects a degree-0 chain map", id="certify-shifted-alpha"),
    pytest.param(
        _edits("s1_alpha.json", _shift_by_one),
        CONE_ARGV + ["-o", "out.json"],
        "cone expects a degree-0 chain map",
        id="cone-shifted-alpha",
    ),
]


@pytest.mark.parametrize("prepare, argv, message", REFUSED_INPUTS)
def test_refused_inputs_exit_2_with_their_error(workdir, capsys, prepare, argv, message):
    prepare(workdir)
    capsys.readouterr()
    code, out, err = run(capsys, *[workdir / a if a.endswith(".json") else a for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(workdir=workdir)}\n"
    assert not (workdir / "out.json").exists()


def test_an_unknown_ring_is_a_usage_error(workdir, capsys):
    code, out, err = run(capsys, "homology", workdir / "s1_complex.json", "--ring", "foo")
    assert (code, out) == (64, "")
    assert err.endswith("error: argument --ring: unknown ring 'foo' (use Q, Z, or F<p>)\n")


def _circle_certificate(workdir, change=None):
    """The circle's certificate, written by ``certify`` and then edited by ``change``."""
    _certify_the_circle(workdir)
    if change:
        _edit(workdir, "s1_complex.cert.json", change)
    return workdir / "s1_complex.cert.json"


def test_reverify_accepts_a_genuine_certificate(workdir, capsys):
    path = _circle_certificate(workdir)
    capsys.readouterr()
    assert run(capsys, "reverify", path) == (0, "accepted\n", "")


def _alter_homotopy_entry(cert):
    block = cert["witness"]["homotopy"]["blocks"][-1]
    block["entries"][0][-1] = "0" if block["entries"][0][-1] != "0" else "1"


def test_reverify_rejects_an_altered_homotopy_entry(workdir, capsys):
    path = _circle_certificate(workdir, _alter_homotopy_entry)
    capsys.readouterr()
    assert run(capsys, "reverify", path) == (1, "rejected: d∘psi + psi∘d != -id at degree 2\n", "")


def _break_the_cone(cert):
    cert["witness"]["cone"]["diffs"][0]["entries"][1][1] = "5"


@pytest.mark.parametrize(
    "prepare, message",
    [
        pytest.param(lambda path: path.write_text("{"), "line 1, column 2: Expecting property name", id="truncated"),
        pytest.param(
            lambda path: shutil.copy(path.parent / "s1_complex.json", path),
            "expected a certificate file, found complex",
            id="not-a-certificate",
        ),
        pytest.param(
            lambda path: _edit(path.parent, path.name, _break_the_cone),
            "not a complex: d∘d != 0 leaving degree 2",
            id="cone-not-a-complex",
        ),
        pytest.param(
            lambda path: _edit(path.parent, path.name, _set(("witness", "homotopy", "blocks", 0, "entries", 0, 0), "x")),
            "homotopy blocks entry at degree 0: bad integer 'x'",
            id="bad-entry",
        ),
        pytest.param(
            lambda path: _edit(path.parent, path.name, _set(("witness", "cone", "degrees", 0, "rank"), 10**12)),
            "complex: rank 1000000000000 at degree 0 exceeds the size cap of 8192",
            id="huge-rank",
        ),
    ],
)
def test_reverify_refuses_a_malformed_certificate_with_exit_2(workdir, capsys, prepare, message):
    path = _circle_certificate(workdir)
    prepare(path)
    capsys.readouterr()
    code, out, err = run(capsys, "reverify", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
