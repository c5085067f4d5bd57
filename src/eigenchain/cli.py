"""Command-line front end.

Subcommands: ``homology``, ``decompose``, ``cone``, ``certify``,
``reverify``, ``verify-homotopy``, ``proptest``.  Exit codes: 0 on
success, an Eigenvalue verdict or an accepted certificate, 1 on
NotEigenvalue, a rejected certificate, a failed verification or a
property-suite disagreement, 2 on structural errors, 64 on usage errors.
Inputs are the JSON formats of :mod:`eigenchain.formats`; simplicial
files are accepted wherever a complex is expected.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

from .certify import _decide, certify_homology_eigenvalue, decide_eigenvalue
from .check import certificate_failure
from .complexes import COCHAIN, identity_map, validate_chain_map, verify_homotopy, zero_map
from .cones import _assemble_cone, _require_cone_input, check_hypotheses, is_contractible, mapping_cone
from .decompose import Decomposition, decompose
from .errors import EigenchainError, NotSaturated, ParseError, ValidationError
from .formats import (
    ComplexDoc,
    canonical_dumps,
    certificate_to_payload,
    cone_to_payload,
    graded_map_from_payload,
    homotopy_from_payload,
    load_complex,
    load_document,
    write_payload,
)
from .oracle import brute_homology_f2, homotopy_system_solvable
from .randgen import alpha_variants, random_complex
from .rings import GF, QQ, ZZ, Ring, _decimal_text

USAGE_EXIT = 64
STRUCTURAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _ring_flag(text: str) -> Ring:
    t = text.strip().lower()
    if t == "q":
        return QQ
    if t == "z":
        return ZZ
    if t.startswith("f") and t[1:].isdigit():
        try:
            return GF(_int_flag(t[1:]))
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(f"ring {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"unknown ring {text!r} (use Q, Z, or F<p>)")


def _int_flag(text: str, sign: str = "") -> int:
    """``text`` as an ``int`` by the rule of scalar text: ASCII digits 0-9, after an optional ``sign``."""
    try:
        t = _decimal_text(text, "integer")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not t.removeprefix(sign).isdecimal():
        raise argparse.ArgumentTypeError(f"expected {'an' if sign else 'a non-negative'} integer, got {text!r}")
    return int(t)


def _group_label(ring, betti: int, torsion) -> str:
    parts = []
    if betti:
        parts.append(f"{ring}^{betti}" if betti > 1 else f"{ring}")
    for t in torsion:
        parts.append(f"Z/{t}")
    return " + ".join(parts) if parts else "0"


def _cmd_homology(args) -> int:
    # Ranks and torsion read off the factored differentials; no degree is split.
    doc = load_complex(args.complex, ring=args.ring)
    dec = Decomposition(doc.complex)
    sym = "H_" if doc.convention == "chain" else "H^"
    for n in sorted(dec, key=doc.user_degree):
        print(f"{sym}{doc.user_degree(n)}: {_group_label(dec.ring, dec.betti(n), dec.torsion(n))}")
    return 0


def _cmd_decompose(args) -> int:
    doc = load_complex(args.complex, ring=args.ring)
    try:
        dec = decompose(doc.complex)
    except NotSaturated as exc:
        raise NotSaturated(exc.factors, degree=doc.user_degree(exc.degree)) from None
    for n in sorted(dec, key=doc.user_degree):
        part = dec[n]
        print(
            f"degree {doc.user_degree(n)}: rank {doc.complex.rank(n)} = "
            f"complement {part.complement.dim} "
            f"(cycles {part.complement_cycles.dim} + transversal {part.complement_transversal.dim}) "
            f"+ image {part.incoming_image.dim}"
        )
    return 0


def _blocks_payload(path, expected: str) -> dict:
    """The payload of a graded map or homotopy file; ``expected``, with ``{kind}`` the kind found, ends the error."""
    # A graded map file may omit its degree_shift, which then reads as a homotopy.
    kind, payload = load_document(path)
    if kind not in ("graded_map", "homotopy"):
        raise EigenchainError(f"{path}: expected {expected.format(kind=kind)}")
    return payload


def _load_map(path, source: ComplexDoc, target: ComplexDoc):
    return graded_map_from_payload(_blocks_payload(path, "a graded map file, found {kind}"), source, target)


def _load_alpha(args, f_doc: ComplexDoc):
    # Its source is lambda's complex.
    return _load_map(args.alpha_path, load_complex(args.lambda_path), f_doc)


@contextmanager
def _file_degrees(f_doc: ComplexDoc, alpha):
    """Name a square of ``alpha`` that fails the cone's chain-map check by the file's degree."""
    try:
        yield
    except ValidationError:
        report = validate_chain_map(alpha) if alpha.degree_shift == 0 else None
        if report is None or report.ok:
            raise
        where = f"degree {f_doc.user_degree(report.degree)} fails at entry {report.entry}"
        raise ValidationError(f"not a chain map: square at {where}") from None


def _cmd_cone(args) -> int:
    f_doc = load_complex(args.complex, ring=args.ring)
    alpha = _load_alpha(args, f_doc)
    with _file_degrees(f_doc, alpha):
        cone = mapping_cone(alpha)
    out = args.output or str(Path(args.complex).with_suffix("")) + ".cone.json"
    write_payload(out, cone_to_payload(cone, f_doc.convention))
    print(f"cone written to {out}")
    return 0


def _cmd_certify(args) -> int:
    if (args.lambda_path is None) != (args.alpha_path is None):
        print("error: --lambda and --alpha must be given together", file=sys.stderr)
        return USAGE_EXIT
    f_doc = load_complex(args.complex, ring=args.ring)
    if args.lambda_path:
        alpha = _load_alpha(args, f_doc)
        with _file_degrees(f_doc, alpha):
            cert = decide_eigenvalue(f_doc.complex, alpha.source, alpha)
    else:
        cert = certify_homology_eigenvalue(f_doc.complex)
    payload = certificate_to_payload(cert, f_doc.convention)
    out = args.output or str(Path(args.complex).with_suffix("")) + ".cert.json"
    write_payload(out, payload)
    print(f"verdict: {cert.verdict}")
    if cert.is_eigenvalue():
        ranks = ", ".join(
            f"degree {d['degree']}: rank {d['rank']}" for d in payload["lambda_ranks"]
        ) or "zero object"
        print(f"scalar object: {ranks}")
    else:
        fr = payload["failure_reason"]
        extra = f" (invariant factors {fr['factors']})" if fr["factors"] else ""
        print(f"reason: {fr['kind']} at degree {fr['degree']}{extra}")
    print(f"certificate written to {out}")
    return 0 if cert.is_eigenvalue() else 1


def _cmd_reverify(args) -> int:
    kind, payload = load_document(args.certificate)
    if kind != "certificate":
        raise ParseError(f"{args.certificate}: expected a certificate file, found {kind}")
    failure = certificate_failure(payload)
    if failure is None:
        print("accepted")
        return 0
    print(f"rejected: {failure}")
    return 1


def _cmd_verify_homotopy(args) -> int:
    doc = load_complex(args.complex)
    x = doc.complex
    psi = homotopy_from_payload(_blocks_payload(args.homotopy, "a homotopy file"), doc)
    f = _load_map(args.f_path, doc, doc) if args.f_path else zero_map(x, x)
    g = _load_map(args.g_path, doc, doc) if args.g_path else identity_map(x)
    report = verify_homotopy(x, f, g, psi)
    if report.ok:
        print("ok")
        return 0
    print(f"FAILED: degree {doc.user_degree(report.degree)}, entry {report.entry}")
    return 1


def _rendered(cert) -> str:
    return canonical_dumps(certificate_to_payload(cert, COCHAIN))


def _cmd_proptest(args) -> int:
    rng = random.Random(args.seed)
    disagreements = 0
    certified = 0  # each certificate also meets the homotopy oracle
    homology_checked = 0
    is_f2 = args.ring == GF(2)
    for trial in range(args.trials):
        f = random_complex(args.ring, rng, max_len=4, max_rank=3, total_cap=args.max_dim)
        dec = Decomposition(f)  # validates F; one analysis of F for the oracle and every variant
        if is_f2 and f.total_dim() <= args.max_dim:
            brute = brute_homology_f2(f, max_total_dim=args.max_dim).ranks
            main = {n: dec.betti(n) for n in dec}
            homology_checked += 1
            if brute != main:
                disagreements += 1
                print(f"[trial {trial}] homology oracle disagreement: {main} vs {brute}")
        for tag, lam, alpha in alpha_variants(f, rng):
            _require_cone_input(alpha)  # checks alpha, once for the oracle and the verdict
            cert = _decide(alpha, dec, check_hypotheses(alpha, dec))
            cone = cert.cone or _assemble_cone(alpha, dec)  # a negative verdict builds none; laid out from F's analysis
            certified += 1
            # certify takes the canonical pair's check from its construction; decide re-derives it.
            if tag == "canonical" and _rendered(certify_homology_eigenvalue(f)) != _rendered(cert):
                disagreements += 1
                print(f"[trial {trial}] certify and decide write different certificates for the canonical pair")
            oracle = homotopy_system_solvable(
                cone.underlying,
                zero_map(cone.underlying, cone.underlying),
                identity_map(cone.underlying),
            )
            if cert.is_eigenvalue() != oracle.solvable:
                disagreements += 1
                print(
                    f"[trial {trial}] verdict/oracle disagreement on variant {tag}: "
                    f"{cert.verdict} vs solvable={oracle.solvable}"
                )
            if not cert.is_eigenvalue():
                contractible, _ = is_contractible(cone.underlying)
                if contractible:
                    disagreements += 1
                    print(f"[trial {trial}] NotEigenvalue but contractible cone on {tag}")
    print(
        f"proptest: {args.trials} complexes, {certified} certificates, "
        f"{certified} homotopy-oracle checks, {homology_checked} homology-oracle checks, "
        f"{disagreements} disagreements"
    )
    return 0 if disagreements == 0 else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="eigenchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="per-degree homology ranks and torsion")
    p.add_argument("complex")
    p.add_argument("--ring", type=_ring_flag, default=None, help="ring for simplicial input (default Z)")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("decompose", help="per-degree complement/cycle/transversal/image ranks")
    p.add_argument("complex")
    p.add_argument("--ring", type=_ring_flag, default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("cone", help="write the mapping cone of a scalar-sourced map")
    p.add_argument("complex")
    p.add_argument("lambda_path", metavar="lambda")
    p.add_argument("alpha_path", metavar="alpha")
    p.add_argument("--ring", type=_ring_flag, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("certify", help="write an eigenvalue certificate")
    p.add_argument("complex")
    p.add_argument("--lambda", dest="lambda_path", default=None)
    p.add_argument("--alpha", dest="alpha_path", default=None)
    p.add_argument("--ring", type=_ring_flag, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("reverify", help="re-check a certificate from its file alone")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_reverify)

    p = sub.add_parser("verify-homotopy", help="check f - g = d∘psi + psi∘d exactly")
    p.add_argument("complex")
    p.add_argument("homotopy")
    p.add_argument("--f", dest="f_path", default=None)
    p.add_argument("--g", dest="g_path", default=None)
    p.set_defaults(func=_cmd_verify_homotopy)

    p = sub.add_parser("proptest", help="seeded oracle-equivalence suites")
    p.add_argument("--ring", type=_ring_flag, default=GF(2))
    p.add_argument("--max-dim", type=_int_flag, default=8)
    p.add_argument("--trials", type=_int_flag, default=50)
    p.add_argument("--seed", type=lambda text: _int_flag(text, sign="-"), default=0)
    p.set_defaults(func=_cmd_proptest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return args.func(args)
    except (EigenchainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STRUCTURAL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
