"""JSON round-trips, the simplicial builder, and the bundled fixtures."""

import json
import os
import stat
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenchain import GF, QQ, ZZ, ChainComplex, Matrix, homology
from eigenchain.certify import certify_homology_eigenvalue, decide_eigenvalue
from eigenchain.complexes import MAX_RANK
from eigenchain.errors import BadIndex, ParseError, ValidationError
from eigenchain.formats import (
    ComplexDoc,
    bundled_path,
    canonical_dumps,
    certificate_to_payload,
    complex_from_payload,
    complex_to_payload,
    cone_to_payload,
    graded_map_from_payload,
    graded_map_to_payload,
    homotopy_from_payload,
    homotopy_to_payload,
    load_complex,
    load_document,
    reverify_certificate,
    write_payload,
)
from eigenchain.rings import Integers
from eigenchain.simplicial import close_simplicial, simplicial_to_chain
from test_golden_analysis import RP2


class TestComplexFiles:
    def test_bundled_circle_round_trips_byte_identically(self):
        for name in ("s1_complex.json", "s1_lambda.json"):
            path = bundled_path(name)
            original = path.read_text(encoding="utf-8")
            doc = load_complex(path)
            assert canonical_dumps(complex_to_payload(doc)) == original

    def test_bundled_circle_parses_to_the_worked_complex(self, circle):
        doc = load_complex(bundled_path("s1_complex.json"))
        assert doc.convention == "chain"
        assert doc.complex == circle

    def test_chain_degrees_are_negated_internally(self):
        doc = load_complex(bundled_path("s1_complex.json"))
        assert doc.complex.ranks == {-1: 3, 0: 3}
        assert doc.user_degree(-1) == 1

    def test_invalid_composition_is_reported_with_its_degree(self, tmp_path):
        payload = {
            "ring": "Q",
            "convention": "cochain",
            "degrees": [{"degree": 0, "rank": 1}, {"degree": 1, "rank": 1}, {"degree": 2, "rank": 1}],
            "diffs": [
                {"from_degree": 0, "entries": [["1"]]},
                {"from_degree": 1, "entries": [["1"]]},
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(canonical_dumps(payload))
        with pytest.raises(ValidationError) as info:
            load_complex(p)
        assert "degree 0" in str(info.value)

    def test_syntax_errors_carry_positions(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"degrees": [,]}')
        with pytest.raises(ParseError) as info:
            load_complex(p)
        assert "line 1" in str(info.value)

    def test_scalars_are_strings_never_floats(self):
        doc = load_complex(bundled_path("s1_complex.json"))
        payload = complex_to_payload(doc)
        for diff in payload["diffs"]:
            for row in diff["entries"]:
                assert all(isinstance(v, str) for v in row)

    def test_rational_entries_round_trip(self):
        x = ChainComplex(QQ, "cochain", {0: 2, 1: 1}, {0: Matrix(QQ, [["1/2", "-3/7"]])})
        doc = ComplexDoc(x, "cochain")
        again = complex_from_payload(complex_to_payload(doc))
        assert again.complex == x


class TestMapAndHomotopyFiles:
    def test_bundled_alpha_round_trips(self):
        f_doc = load_complex(bundled_path("s1_complex.json"))
        lam_doc = load_complex(bundled_path("s1_lambda.json"))
        payload = json.loads(bundled_path("s1_alpha.json").read_text())
        alpha = graded_map_from_payload(payload, lam_doc, f_doc)
        assert alpha.block(-1) == Matrix(ZZ, [[1], [1], [1]])
        assert canonical_dumps(graded_map_to_payload(alpha, "chain")) == bundled_path(
            "s1_alpha.json"
        ).read_text(encoding="utf-8")

    def test_bundled_homotopy_round_trips(self, circle_with_pair):
        from eigenchain import mapping_cone

        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        cone_doc = ComplexDoc(cone.underlying, "chain")
        payload = json.loads(bundled_path("s1_psi.json").read_text())
        psi = homotopy_from_payload(payload, cone_doc)
        assert psi.block(-1) == Matrix(ZZ, [[0, 0, 0, -1]])
        assert canonical_dumps(homotopy_to_payload(psi, "chain")) == bundled_path(
            "s1_psi.json"
        ).read_text(encoding="utf-8")


class TestCertificateFiles:
    def test_positive_certificate_reverifies_from_disk_data_alone(self, circle):
        cert = certify_homology_eigenvalue(circle)
        payload = certificate_to_payload(cert, "chain")
        assert payload["verdict"] == "Eigenvalue"
        assert payload["lambda_ranks"] == [
            {"degree": 0, "rank": 1},
            {"degree": 1, "rank": 1},
        ]
        round_tripped = json.loads(canonical_dumps(payload))
        assert reverify_certificate(round_tripped)
        assert canonical_dumps(round_tripped) == canonical_dumps(payload)

    def test_failure_certificate_is_serializable(self):
        f = ChainComplex(ZZ, "cochain", {0: 1, 1: 1}, {0: Matrix(ZZ, [[2]])})
        cert = certify_homology_eigenvalue(f)
        payload = certificate_to_payload(cert, "cochain")
        assert payload["verdict"] == "NotEigenvalue"
        assert payload["failure_reason"] == {"kind": "Torsion", "degree": 1, "factors": [2]}
        assert payload["witness"] is None

    def test_chain_convention_failure_picks_the_smallest_user_degree(self, circle):
        from eigenchain import GradedMap, scalar_object

        lam = scalar_object(ZZ, {-1: 2, 0: 2})
        alpha = GradedMap(
            lam,
            circle,
            0,
            {
                -1: Matrix(ZZ, [[1, 0], [1, 0], [1, 0]]),
                0: Matrix(ZZ, [[1, 0], [0, 0], [0, 0]]),
            },
        )
        cert = decide_eigenvalue(circle, lam, alpha)
        payload = certificate_to_payload(cert, "chain")
        # Both chain degrees 0 and 1 fail; degree 0 is reported.
        assert payload["failure_reason"]["degree"] == 0


class TestSimplicial:
    def test_triangle_edges_have_the_standard_boundary(self):
        chain, data = simplicial_to_chain(["A", "B", "C"], [[0, 1], [1, 2], [0, 2]], ZZ)
        assert chain.convention == "chain"
        assert chain.ranks == {0: 3, 1: 3}
        # Edge order is lexicographic: [AB], [AC], [BC].
        expected = Matrix(ZZ, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
        assert chain.diff(1) == expected
        assert data[1] == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3), GF(5)], ids=str)
    def test_boundary_entries_are_the_rings_signs(self, ring):
        # The triangle, the 2-sphere (the boundary of the 3-simplex) and the 6-vertex RP^2.
        sphere = [list(f) for f in combinations(range(4), 3)]
        for vertices, facets in ((3, [[0, 1], [1, 2], [0, 2]]), (4, sphere), (6, RP2)):
            chain, simplices = simplicial_to_chain(vertices, facets, ring)
            for k in range(1, len(simplices)):
                row = {face: i for i, face in enumerate(simplices[k - 1])}
                grid = [[0] * len(simplices[k]) for _ in row]
                for j, simplex in enumerate(simplices[k]):
                    # Deleting the i-th vertex gives a face with sign (-1)^i.
                    for i, v in enumerate(simplex):
                        grid[row[tuple(w for w in simplex if w != v)]][j] = (-1) ** i
                d = chain.diff(k)
                assert d == Matrix(ring, grid)
                entries = [x for r in d.data for x in r]
                assert all(type(x) is int for x in entries)
                if ring.needs_reduction:
                    assert all(0 <= x < ring.p for x in entries)

    def test_boundary_build_normalizes_a_fixed_number_of_values(self, monkeypatch):
        # The 2-skeleta of the 2- and 5-simplex have 12 and 390 boundary entries.
        normalized = []
        original = Integers.normalize

        def counted(self, x):
            normalized.append(x)
            return original(self, x)

        monkeypatch.setattr(Integers, "normalize", counted)
        counts = {}
        for n in (3, 6):
            normalized.clear()
            chain, _ = simplicial_to_chain(n, [list(f) for f in combinations(range(n), 3)], ZZ)
            calls = len(normalized)
            counts[sum(d.rows * d.cols for d in (chain.diff(1), chain.diff(2)))] = calls
        assert sorted(counts) == [12, 390]
        assert counts[12] == counts[390] < 12

    def test_circle_homology_from_the_simplicial_file(self):
        doc = load_complex(bundled_path("s1_simplicial.json"))
        hom = homology(doc.complex)
        assert {doc.user_degree(n): h.betti for n, h in hom.by_degree.items()} == {0: 1, 1: 1}
        assert not hom.torsion_by_degree()

    def test_only_vertices_of_a_facet_are_simplices(self, tmp_path):
        # Three vertices bound the indices, but vertex 2 lies in no facet: H_0 has rank one.
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"vertices": 3, "facets": [[0, 1]]}))
        doc = load_complex(str(path))
        assert {doc.user_degree(n): r for n, r in doc.complex.ranks.items()} == {0: 2, 1: 1}
        hom = homology(doc.complex)
        assert {doc.user_degree(n): h.betti for n, h in hom.by_degree.items()} == {0: 1, 1: 0}

    def test_single_vertex(self):
        chain, _ = simplicial_to_chain(1, [[0]], ZZ)
        from eigenchain import convert_convention

        hom = homology(convert_convention(chain, "cochain"))
        assert {n: h.betti for n, h in hom.by_degree.items()} == {0: 1}

    def test_filled_triangle_kills_the_loop(self):
        chain, _ = simplicial_to_chain(3, [[0, 1, 2]], ZZ)
        from eigenchain import convert_convention

        hom = homology(convert_convention(chain, "cochain"))
        betti = {-n: h.betti for n, h in hom.by_degree.items()}
        assert betti == {0: 1, 1: 0, 2: 0}

    def test_boundary_of_boundary_is_zero_on_larger_complexes(self):
        chain, _ = simplicial_to_chain(5, [[0, 1, 2, 3], [1, 2, 3, 4]], ZZ)
        from eigenchain import validate_complex

        assert validate_complex(chain).ok

    def test_bad_vertex_index(self):
        with pytest.raises(BadIndex):
            close_simplicial(2, [[0, 5]])

    def test_size_cap(self):
        close_simplicial(MAX_RANK, [[0, 1]])
        with pytest.raises(ParseError, match="vertices exceed the size cap"):
            close_simplicial(MAX_RANK + 1, [[0, 1]])
        close_simplicial(14, [list(range(14))])  # at most 3432 faces of one dimension
        with pytest.raises(ParseError, match="facet of 15 vertices"):
            close_simplicial(15, [list(range(15))])  # 6435 of dimension 6
        with pytest.raises(ParseError, match="simplices of dimension 1 exceed the size cap"):
            close_simplicial(92, [[i, j] for i in range(92) for j in range(i + 1, 92)])  # 4186 edges

    def test_closure_is_computed(self):
        data = close_simplicial(3, [[0, 1, 2]])
        assert len(data[0]) == 3
        assert len(data[1]) == 3
        assert len(data[2]) == 1


@pytest.mark.parametrize("index", [0.0, [0], True, "1"], ids=["float", "list", "bool", "string"])
def test_a_vertex_index_that_is_not_an_integer_is_a_parse_error(index):
    with pytest.raises(ParseError) as info:
        close_simplicial(2, [[index, 1]])
    assert str(info.value) == f"vertex index must be a JSON integer, got {index!r}"

def test_complex_ranks_past_the_size_cap_are_parse_errors():
    def payload(rank):
        return {"ring": "Z", "convention": "cochain", "degrees": [{"degree": 3, "rank": rank}], "diffs": []}

    assert complex_from_payload(payload(MAX_RANK)).complex.ranks == {3: MAX_RANK}
    with pytest.raises(ParseError, match=f"rank {MAX_RANK + 1} at degree 3 exceeds the size cap"):
        complex_from_payload(payload(MAX_RANK + 1))


@pytest.mark.parametrize("ranks", [(1, 2), (0, 2), (2, 0), (0, 0)])
def test_a_degree_listed_twice_in_degrees_is_a_parse_error(ranks):
    # A rank-0 entry names its degree too, so it is a repeat all the same.
    degrees = [{"degree": 0, "rank": r} for r in ranks]
    payload = {"ring": "Z", "convention": "cochain", "degrees": degrees, "diffs": []}
    with pytest.raises(ParseError, match="^complex: 'degree' 0 appears twice in 'degrees'$"):
        complex_from_payload(payload)


class TestWritePayload:
    def test_overwriting_a_longer_file_leaves_exactly_the_payload(self, tmp_path, circle):
        payload = certificate_to_payload(certify_homology_eigenvalue(circle), "chain")
        expected = canonical_dumps(payload).encode()
        path = tmp_path / "s1.cert.json"
        path.write_bytes(b"x" * (len(expected) + 100_000))
        os.link(path, tmp_path / "link.json")
        write_payload(path, payload)
        assert path.read_bytes() == expected
        assert path.stat().st_size == len(expected)
        # Overwritten in place: a hard link to the old file sees the new bytes.
        assert (tmp_path / "link.json").read_bytes() == expected

    @pytest.mark.parametrize("umask", [None, 0o002, 0o077], ids=["current", "002", "077"])
    def test_a_new_file_gets_the_mode_write_text_gives(self, tmp_path, umask):
        current = os.umask(0)
        umask = current if umask is None else umask
        os.umask(umask)
        try:
            write_payload(tmp_path / "written.json", {"a": "b"})
            (tmp_path / "text.json").write_text("x", encoding="utf-8")
        finally:
            os.umask(current)
        mode = stat.S_IMODE((tmp_path / "written.json").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "text.json").stat().st_mode)
        assert mode == 0o666 & ~umask


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(max_value=-(2**80)) | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


class TestCanonicalDumps:
    @given(JSON_VALUES)
    def test_matches_sorted_indented_json(self, value):
        assert canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_edge_cases(self):
        value = {
            "": [],
            "b": {},
            "a": [[], {}, [[None]], {"z": True, "y": False}],
            'quote " and back\\slash': "tab\t nul\x00 bell\x07 é ∂ 😀",
            "big": -(10**40),
        }
        assert canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert canonical_dumps(("a", 1)) == canonical_dumps(["a", 1])

    @pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a": {2}}, b"bytes"], ids=repr)
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            canonical_dumps(value)


class TestDetection:
    def test_kind_detection(self, tmp_path):
        cases = {
            "simplicial": {"vertices": 1, "facets": [[0]]},
            "certificate": {"verdict": "Eigenvalue"},
            "complex": {"degrees": [], "ring": "Z", "convention": "chain", "diffs": []},
            "graded_map": {"degree_shift": 0, "blocks": [], "ring": "Z"},
            "homotopy": {"blocks": [], "ring": "Z"},
        }
        for expected, payload in cases.items():
            p = tmp_path / f"{expected}.json"
            p.write_text(canonical_dumps(payload))
            kind, _ = load_document(p)
            assert kind == expected


def _bundled(name) -> dict:
    return json.loads(bundled_path(name).read_text(encoding="utf-8"))


def test_a_graded_map_file_without_a_ring_names_itself():
    payload = _bundled("s1_alpha.json")
    del payload["ring"]
    lam, f = load_complex(bundled_path("s1_lambda.json")), load_complex(bundled_path("s1_complex.json"))
    with pytest.raises(ParseError, match="^graded map: unknown ring tag None$"):
        graded_map_from_payload(payload, lam, f)


def test_a_homotopy_file_with_an_unknown_convention_names_itself():
    payload = {**_bundled("s1_psi.json"), "convention": "Chain"}
    with pytest.raises(ParseError, match="^homotopy: bad convention 'Chain'$"):
        homotopy_from_payload(payload, load_complex(bundled_path("s1_complex.json")))


def test_every_writer_refuses_a_convention_its_reader_refuses(circle_with_pair):
    f, lam, alpha = circle_with_pair
    cert = decide_eigenvalue(f, lam, alpha)
    writers = [
        lambda c: complex_to_payload(ComplexDoc(f, c)),
        lambda c: graded_map_to_payload(alpha, c),
        lambda c: homotopy_to_payload(cert.witness, c),
        lambda c: cone_to_payload(cert.cone, c),
        lambda c: certificate_to_payload(cert, c),
    ]
    for write in writers:
        with pytest.raises(ParseError, match="^bad convention 'Chain'$"):
            write("Chain")
