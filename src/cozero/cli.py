"""Command-line front end: analyze rings, run the claim suite, export graphs.

Exit codes: 0 success / all checks pass, 1 verification or runtime failure,
2 usage or parse error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import graphs, rings, verify
from .rings import RingSpec, RingSpecError


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cozero",
        description="Cozero-divisor graphs of finite rings: exact clique and "
                    "chromatic numbers, perfection certificates, claim suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("specs", nargs="*", metavar="RING",
                       help='ring specs like "Z2xZ3xZ5"')
        p.add_argument("--rings", help="comma-separated ring specs")
        p.add_argument("--out", metavar="PATH", help="write output to PATH")
        # a string default goes through type=, so a bad environment value
        # is rejected like a bad flag, but only when the flag is absent
        p.add_argument("--max-cardinality", type=_positive_int,
                       default=os.environ.get("COZERO_MAX_CARDINALITY",
                                              rings.DEFAULT_MAX_CARDINALITY),
                       help="ring size cap (default: $COZERO_MAX_CARDINALITY, "
                            f"else {rings.DEFAULT_MAX_CARDINALITY})")
        p.add_argument("--max-vertices", type=_positive_int,
                       help="size guard, not a search limit: a ring graph with "
                            "more vertices is an error in analyze and export and "
                            "a cap-exceeded skip in verify (default: the "
                            "cardinality cap)")

    p_an = sub.add_parser("analyze", help="per-ring graph summary")
    add_common(p_an)
    p_an.add_argument("--format", choices=["text", "json"], default="text")

    p_ve = sub.add_parser("verify", help="run claim checks, emit JSON reports")
    add_common(p_ve)
    p_ve.add_argument("--suite", help="comma-separated claim ids "
                                      f"(default: all of {', '.join(sorted(verify.CLAIMS))})")

    p_ex = sub.add_parser("export", help="export a graph as DOT or JSON")
    add_common(p_ex)
    p_ex.add_argument("--format", choices=["dot", "json"], default="dot")
    p_ex.add_argument("--quotient", action="store_true",
                      help="export the associate-class quotient instead")
    p_ex.add_argument("--complement", action="store_true",
                      help="export the complement instead")
    return parser


def _gather_specs(args, parser) -> list[RingSpec]:
    texts = list(args.specs)
    if args.rings is not None:
        listed = [t for t in args.rings.split(",") if t]
        if not listed:
            parser.exit(2, f"cozero: error: --rings {args.rings!r} names no ring\n")
        texts.extend(listed)
    try:
        return [rings.parse_spec(t) for t in texts]
    except RingSpecError as exc:
        parser.exit(2, f"cozero: error: {exc}\n")


def _emit(text: str, out_path: str | None, parser) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            parser.exit(2, f"cozero: error: cannot write {out_path}: {exc.strerror}\n")
    else:
        sys.stdout.write(text)


def _analyze_one(case: verify.Case) -> dict:
    spec, g = case.spec, case.graph
    try:  # a failed certificate is the ring's error entry
        coloring = case.coloring
    except Exception as exc:
        return {"spec": str(spec), "error": f"{type(exc).__name__}: {exc}"}
    info: dict = {
        "spec": str(spec),
        "cardinality": spec.cardinality,
        # zero is the one non-unit that is not a vertex
        "units": spec.cardinality - 1 - g.n,
        "vertices": g.n,
        "edges": g.edge_count(),
        "vnr": spec.fields is not None,
        "omega": len(coloring.clique),
        "clique_witness": list(coloring.clique),
        "chi": coloring.count,
        "perfect": bool(case.order),
    }
    if spec.fields is not None:
        n = len(spec.fields)
        info["field_factors"] = n
        if n >= 2:
            formula = math.comb(n, n // 2)
            info["formula"] = formula
            info["formula_match"] = len(coloring.clique) == formula  # chi is the clique's size
    # a class is a gcd signature, one divisor per modulus, but the zero's and the units'
    info["associate_classes"] = math.prod(
        e + 1 for n in spec.moduli for _, e in rings.factorize(n)) - 2
    return info


def _format_analysis(info: dict) -> str:
    if "error" in info:
        return f"{info['spec']}: error: {info['error']}\n"
    lines = [f"{info['spec']}:"]
    lines.append(f"  |R|={info['cardinality']} units={info['units']} "
                 f"vertices={info['vertices']} edges={info['edges']}")
    lines.append(f"  vnr={str(info['vnr']).lower()}"
                 + (f" field-factors={info['field_factors']}"
                    if "field_factors" in info else ""))
    lines.append(f"  omega={info['omega']} chi={info['chi']} "
                 f"perfect={str(info['perfect']).lower()}")
    if "formula" in info:
        n = info["field_factors"]
        verdict = "match" if info["formula_match"] else "MISMATCH"
        lines.append(f"  formula C({n},{n // 2})={info['formula']}: {verdict}")
    if info["edges"] == 0:
        lines.append("  null graph")
    return "\n".join(lines) + "\n"


def cmd_analyze(args, parser, caps: verify.Caps) -> int:
    specs = _gather_specs(args, parser)
    if not specs:
        parser.exit(2, "cozero: error: no ring specs given\n")
    # a ring over a cap is an error entry, in place
    infos = [{"spec": str(c.spec), "error": c.built} if c.graph is None else _analyze_one(c)
             for c in (verify.Case(spec, caps) for spec in specs)]
    _emit(json.dumps(infos, indent=2) + "\n" if args.format == "json"
          else "".join(map(_format_analysis, infos)), args.out, parser)
    return 1 if any("error" in info for info in infos) else 0


def cmd_verify(args, parser, caps: verify.Caps) -> int:
    names = sorted(verify.CLAIMS)
    if args.suite is not None:
        names = [t for t in args.suite.split(",") if t]
        if not names:
            parser.exit(2, f"cozero: error: --suite {args.suite!r} names no claim\n")
    specs = _gather_specs(args, parser)
    if not specs:
        specs = verify.default_ring_set()
    try:
        reports = verify.run_suite(names, specs, caps)
    except verify.UnknownClaimError as exc:
        parser.exit(2, f"cozero: error: {exc}\n")
    _emit(verify.reports_to_json(reports), args.out, parser)
    failed = any(not r.passed and not r.skipped for r in reports)
    return 1 if failed else 0


def cmd_export(args, parser, caps: verify.Caps) -> int:
    specs = _gather_specs(args, parser)
    if len(specs) != 1:
        parser.exit(2, "cozero: error: export takes exactly one ring spec\n")
    if args.quotient and args.complement:
        parser.exit(2, "cozero: error: choose one of --quotient/--complement\n")
    case = verify.Case(specs[0], caps)
    if (g := case.graph) is None:
        sys.stderr.write(f"cozero: error: {case.built}\n")
        return 1
    if args.quotient:
        g = graphs.quotient_by_associates(g)
    elif args.complement:
        g = graphs.complement(g)
    text = graphs.to_dot(g) if args.format == "dot" else graphs.to_json(g)
    _emit(text, args.out, parser)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    caps = verify.Caps(args.max_cardinality, args.max_vertices)
    handlers = {"analyze": cmd_analyze, "verify": cmd_verify, "export": cmd_export}
    return handlers[args.command](args, parser, caps)


if __name__ == "__main__":
    sys.exit(main())
