"""Command-line front end.

Subcommands:

* ``invariants`` -- parse a diagram (PD text, braid word, diagram JSON,
  plat JSON, or a bundled table name) and report invariants (a link gets
  only those defined for links: Jones, Conway and Kauffman F);
* ``verify-paper`` -- run the published stevedore-cable verification
  chain and report each identity with both sides;
* ``table`` -- list the bundled knot table or recompute and diff it;
* ``cable`` -- build a 2-cable with prescribed framing and run checks.

Plat JSON is an object with a ``genus`` key: ``{"genus": g, "extra": m,
"braid": "s2 s3^-1 ...", "strands": 2*(2g+m), "curls": [c1, ...]}``.
``extra`` defaults to 0, ``strands`` to one more than the largest
generator index, and ``curls`` (one integer per wedge circle, 2g in all)
to zeros; a ``mode`` key, if given, must be ``"plat"``.  Caps join
strands (1, 2), (3, 4), ... above the braid; below it, a cone closes the
leftmost 4g endpoints and cups join the rest in adjacent pairs.  The
diagram reported on is the boundary knot of the banded spine; a spine
with circles besides the wedge, or a boundary of several circles, is an
input error.

The one global setting is ``--max-crossings``, the crossing cap of the
polynomial engines.  ``cable`` checks the cable's crossing count against
it before it builds the cable, whatever the checks.  A braid, as text or
in plat JSON, on more than twice the cap plus 2 strands is refused before
its closure is built, and Jones and Kauffman F refuse a diagram with more
than twice the cap plus 2 free loops.
Everything runs in one process.  ``invariants`` and ``cable`` own the
memo of Kauffman F, which keys the diagrams it is called on, and
``cable`` owns one for the bracket too, which its hat reads from its
cable; a memo is shared by the command's own engine calls and dropped
when it returns, and the report's ``memo`` section gives its counts.
``invariants`` reports ``surface_genus``, the genus of the Seifert
surface of the diagram as drawn: an upper bound on the knot genus that
depends on the drawing.  When ``invariants`` builds a Seifert matrix, its
``seifert`` section gives the Seifert circles and the matrix size.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 resource limit.  Reports are deterministic: timing and memo counts live
in separate sections that never enter comparison payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import table as table_mod
from .cable import cable2, king_verify, make_hat
from .diagram import Diagram, pd_parse
from .errors import DiagramSyntaxError, KnotError, ResourceLimit
from .polyring import LaurentPoly
from .presentations import (PlatPresentation, _check_strands, braid_parse,
                            braid_to_tangle, spine_boundary_knot,
                            trace_closure)
from .seifert import (alexander_from_seifert, determinant, is_monic,
                      seifert_circles, seifert_matrix, seifert_surface_genus,
                      signature)
from .skein import (DEFAULT_ENGINE_CAP, SkeinMemo, _check_cap, conway,
                    jones_memoized, kauffman_F)
from .verification import stevedore_chain_report

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

INVARIANT_NAMES = ("jones", "alexander", "conway", "kauffman",
                   "determinant", "signature", "surface_genus", "fibered")
LINK_INVARIANTS = ("jones", "conway", "kauffman")
CABLE_CHECKS = ("writhe-formula", "hat", "king")


def _load_input(text_or_path: str, max_crossings: int) -> Diagram:
    """Table name, file path, or literal input text.  A braid, as text or
    in plat JSON, on more strands than ``max_crossings`` bounds is refused
    before its closure is built."""
    try:
        return table_mod.entry(text_or_path).diagram()
    except KeyError:
        pass
    if os.path.exists(text_or_path):
        with open(text_or_path) as fh:
            text = fh.read()
    else:
        text = text_or_path
    text = text.strip()
    if not text:
        raise KnotError("empty input")
    if text.startswith("{"):
        try:  # text that nests past the parser's recursion is bad input too
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            raise DiagramSyntaxError(f"bad input JSON: {e}") from e
        if "genus" in data:
            return spine_boundary_knot(
                PlatPresentation.from_json(data, max_crossings))
        return Diagram.from_json(data)
    if text.split()[0].startswith(("X", "O")):
        return pd_parse(text)
    braid = braid_parse(text)
    _check_strands(braid.strands, max_crossings)
    return trace_closure(braid_to_tangle(braid))


def _emit(report: dict, fmt: str):
    stream = sys.stdout  # looked up per call, so redirection takes effect
    if fmt == "json":
        json.dump(report, stream, sort_keys=True, indent=1)
        stream.write("\n")
        return
    payload = report["payload"]
    _emit_text(payload, stream)
    timing = report.get("timing") or {}
    for key in sorted(timing):
        stream.write(f"# timing {key}: {timing[key]}\n")


def _emit_text(payload, stream, indent=""):
    if isinstance(payload, dict):
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)):
                stream.write(f"{indent}{key}:\n")
                _emit_text(value, stream, indent + "  ")
            else:
                stream.write(f"{indent}{key}: {value}\n")
    elif isinstance(payload, list):
        for value in payload:
            _emit_text(value, stream, indent)
            if isinstance(value, (dict, list)):
                stream.write(f"{indent}-\n")
    else:
        stream.write(f"{indent}{payload}\n")


def cmd_invariants(args) -> int:
    diagram = _load_input(args.input, args.max_crossings)
    if args.which in (None, "all"):
        which = [w for w in INVARIANT_NAMES
                 if diagram.n_components == 1 or w in LINK_INVARIANTS]
    else:
        which = [w.strip() for w in args.which.split(",")]
    bad = [w for w in which if w not in INVARIANT_NAMES]
    if bad:
        raise KnotError(f"unknown invariants: {', '.join(bad)}; "
                        f"choose from {', '.join(INVARIANT_NAMES)}")
    values = {}
    timing = {}
    memo = SkeinMemo()
    need_seifert = {"alexander", "determinant", "signature", "fibered"} & set(which)
    smatrix = delta = None
    if need_seifert:
        t0 = time.perf_counter()
        smatrix = seifert_matrix(diagram)
        timing["seifert_matrix"] = round(time.perf_counter() - t0, 6)
    for name in which:
        t0 = time.perf_counter()
        if name == "jones":
            values[name] = str(jones_memoized(diagram, args.max_crossings))
        elif name in ("alexander", "fibered"):
            if delta is None:  # one Alexander polynomial serves both
                delta = alexander_from_seifert(smatrix)
            if name == "alexander":
                values[name] = str(delta)
            else:
                values[name] = "pass" if is_monic(delta) else "fail"
        elif name == "conway":
            nabla = conway(diagram, args.max_crossings)
            values[name] = nabla.to_str("z")
        elif name == "kauffman":
            values[name] = str(kauffman_F(diagram, args.max_crossings, memo))
        elif name == "determinant":
            values[name] = determinant(smatrix)
        elif name == "signature":
            values[name] = signature(smatrix)
        elif name == "surface_genus":
            values[name] = seifert_surface_genus(diagram)
        timing[name] = round(time.perf_counter() - t0, 6)
    report = {
        "payload": {
            "input": args.input,
            "crossings": diagram.n_crossings,
            "components": diagram.n_components,
            "writhe": diagram.writhe(),
            "invariants": values,
        },
        "timing": timing,
        "memo": {"kauffman": memo.stats()},
    }
    if smatrix is not None:
        report["seifert"] = {
            "circles": len(seifert_circles(diagram)) + diagram.free_loops,
            "matrix_size": smatrix.size}
    _emit(report, args.format)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    report = stevedore_chain_report(max_crossings=args.max_crossings)
    _emit(report, args.format)
    return EXIT_OK if report["payload"]["all_pass"] else EXIT_VERIFY


def cmd_table(args) -> int:
    entries = table_mod.load_table()
    if args.action == "list":
        payload = {"entries": [
            {"name": e.name, "crossings": e.diagram().n_crossings,
             "jones": e.jones, "alexander": e.alexander,
             "determinant": e.determinant, "signature": e.signature,
             "genus": e.genus, "fibered": e.fibered}
            for e in entries
        ]}
        _emit({"payload": payload, "timing": {}}, args.format)
        return EXIT_OK
    t0 = time.perf_counter()
    rows = []
    for e in entries:
        diffs = table_mod.verify_entry(e, args.max_crossings)
        rows.append({"name": e.name, "clean": not diffs,
                     "diffs": {k: {"stored": s, "computed": c}
                               for k, (s, c) in sorted(diffs.items())}})
    payload = {"entries": rows, "all_clean": all(r["clean"] for r in rows)}
    report = {"payload": payload,
              "timing": {"total": round(time.perf_counter() - t0, 6)}}
    _emit(report, args.format)
    return EXIT_OK if payload["all_clean"] else EXIT_VERIFY


def cmd_cable(args) -> int:
    wanted = ([c.strip() for c in args.checks.split(",")]
              if args.checks else list(CABLE_CHECKS))
    bad = [c for c in wanted if c not in CABLE_CHECKS]
    if bad:
        raise KnotError(f"unknown checks: {', '.join(bad)}; "
                        f"choose from {', '.join(CABLE_CHECKS)}")
    base = _load_input(args.input, args.max_crossings)
    # count the crossings cable2 would build before building them, whatever
    # the checks; a link is left to cable2, which refuses it as an input error
    if base.n_components == 1:
        _check_cap(4 * base.n_crossings
                   + 2 * abs(args.framing - base.writhe()), args.max_crossings)
    engines = {"hat", "king"} & set(wanted)
    t0 = time.perf_counter()
    cab = cable2(base, args.framing)
    checks = {}
    timing = {"cable": round(time.perf_counter() - t0, 6)}
    memo = SkeinMemo()
    bracket_memo = SkeinMemo()
    if "writhe-formula" in wanted:
        lhs = cab.diagram.writhe()
        rhs = 4 * base.writhe() + 2 * (args.framing - base.writhe())
        checks["writhe-formula"] = {"pass": lhs == rhs,
                                    "lhs": str(lhs), "rhs": str(rhs)}
    v_tilde = None
    if engines:
        t0 = time.perf_counter()
        v_tilde = jones_memoized(cab.diagram, args.max_crossings, bracket_memo)
        timing["jones_cable"] = round(time.perf_counter() - t0, 6)
    if "hat" in wanted:
        hat = make_hat(cab)
        t0 = time.perf_counter()
        v_hat = jones_memoized(hat.diagram, args.max_crossings, bracket_memo)
        timing["jones_hat"] = round(time.perf_counter() - t0, 6)
        expected = LaurentPoly.t_pow(-3 * args.framing) * v_tilde
        checks["hat"] = {"pass": v_hat == expected,
                         "lhs": str(v_hat), "rhs": str(expected)}
    if "king" in wanted:
        t0 = time.perf_counter()
        f_poly = kauffman_F(base, args.max_crossings, memo)
        timing["kauffman_F"] = round(time.perf_counter() - t0, 6)
        t0 = time.perf_counter()
        passed = king_verify(f_poly, v_tilde, args.framing)
        timing["king"] = round(time.perf_counter() - t0, 6)
        checks["king"] = {"pass": passed,
                          "lhs": f"F: {f_poly}",
                          "rhs": f"V(cable): {v_tilde}"}
    payload = {
        "input": args.input,
        "framing": args.framing,
        "crossings": cab.diagram.n_crossings,
        "linking": cab.linking(),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }
    _emit({"payload": payload, "timing": timing,
           "memo": {"kauffman": memo.stats(),
                    "bracket": bracket_memo.stats()}}, args.format)
    return EXIT_OK if payload["all_pass"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotcalc",
        description="Exact knot and link invariants from planar diagrams.",
        epilog="exit codes: 0 success, 1 verification failure, "
               "2 input error, 3 resource limit")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--max-crossings", type=int,
        default=DEFAULT_ENGINE_CAP,
        help="crossing cap for the polynomial engines and for the cable "
             "that 'cable' builds, checked before it is built; Jones and "
             "Kauffman F also refuse more than twice the cap plus 2 free "
             f"loops (default: {DEFAULT_ENGINE_CAP})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="invariants of one diagram")
    p.add_argument("input", help="PD text, braid word, diagram/plat JSON, "
                                 "file path, or bundled table name")
    p.add_argument("--which", help=(
        "comma-separated invariant names or 'all' (for a link: jones, "
        f"conway, kauffman): {', '.join(INVARIANT_NAMES)}; surface_genus "
        "is the genus of the Seifert surface of the diagram as drawn, an "
        "upper bound on the knot genus"))
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify-paper",
                       help="verify the published stevedore-cable chain")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("table", help="list the bundled knot table, or "
                                     "recompute every entry and diff it")
    p.add_argument("action", choices=("list", "verify"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cable", help="2-cable with prescribed framing")
    p.add_argument("input")
    p.add_argument("--framing", type=int, default=0)
    p.add_argument("--checks",
                   help=f"comma-separated: {', '.join(CABLE_CHECKS)}")
    p.set_defaults(func=cmd_cable)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_crossings < 0:
        parser.error("argument --max-crossings: a cap of "
                     f"{args.max_crossings} is below 0")
    try:
        return args.func(args)
    except ResourceLimit as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (KnotError, OSError, KeyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
