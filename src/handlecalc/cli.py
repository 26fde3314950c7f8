"""Command-line front end.

Subcommands: knot (catalog arithmetic), factorize (emit the piece
factorizations), cancel (run the cancellation schedules, optionally
writing a trace file), verify (full certificate).  Exit codes: 0 ok,
1 usage or parse error, 2 schedule failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from itertools import product

from .complexes import MoveError
from .factorization import build_pieces, factorization_json
from .knots import Knot, KnotSpecError, StallingsKnot, TwoBridgeKnot, parse_knot_spec
from .schedules import ScheduleError, assemble, run_both
from .trace import OPAQUE_TEXT, SCHEMA
from .verify import full_report
from .words import word_str

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCHEDULE = 2
EXIT_VERIFY = 3


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _knot_selection(args) -> list[Knot]:
    if args.max_k < 1:
        raise ValueError("--max-k must be >= 1")
    if args.all_fibered:
        if args.spec is not None:
            raise KnotSpecError("give either a knot spec or --all-fibered, not both")
        knots: list[Knot] = []
        for k in range(1, args.max_k + 1):
            for eps in product((1, -1), repeat=2 * k):
                knots.append(TwoBridgeKnot.from_eps(eps))
        return knots
    if args.spec is None:
        raise KnotSpecError("missing knot spec (or use --all-fibered)")
    return [parse_knot_spec(args.spec)]


def _cmd_knot(args) -> int:
    knot = parse_knot_spec(args.spec)
    if isinstance(knot, StallingsKnot):
        info = {
            "knot": str(knot),
            "bridge_number": 3,
            "fraction": None,
            "fibered": True,
            "genus": 2,
            "monodromy": knot.monodromy().composition_str(),
        }
    else:
        info = {
            "knot": str(knot.conway),
            "bridge_number": 2,
            "fraction": str(knot.fraction()),
            "fibered": knot.is_fibered,
        }
        if knot.is_fibered:
            info["genus"] = knot.genus
            info["monodromy"] = knot.monodromy().composition_str()
        else:
            info["reason"] = "D-form entries are not all +1/-1"
    if args.json:
        _emit(info)
        return EXIT_OK
    for key, value in info.items():
        if value is None:
            value = "n/a"
        if isinstance(value, bool):
            value = "yes" if value else "no"
        print(f"{key}: {value}")
    return EXIT_OK


def _cmd_factorize(args) -> int:
    knot = parse_knot_spec(args.spec)
    x1, x2 = build_pieces(knot, args.n)
    payload = {
        "schema": SCHEMA,
        "knot": knot.spec_str(),
        "n": args.n,
        "X1": factorization_json(x1.factorization),
        "X2": factorization_json(x2.factorization),
    }
    if args.json:
        _emit(payload)
    else:
        for piece in (x1, x2):
            print(f"{piece.which}: {len(piece.factorization)} vanishing cycles")
            for vc in piece.factorization.cycles:
                word = OPAQUE_TEXT if vc.word is None else word_str(vc.word)
                print(f"  {vc.label():>12}  [{vc.framing}]  {word}")
    return EXIT_OK


def _cmd_cancel(args) -> int:
    knots = _knot_selection(args)
    try:  # before any schedule runs, so an unwritable path prints no result
        trace_file = open(args.trace, "w", encoding="utf-8") if args.trace else contextlib.nullcontext()
    except OSError as err:
        print(f"error: cannot write trace {args.trace}: {err.strerror or err}", file=sys.stderr)
        return EXIT_USAGE
    with trace_file:
        traces = []
        for knot in knots:
            results = run_both(knot, args.n)
            line = []
            for piece in ("X1", "X2"):
                cx, trace = results[piece]
                traces.append(trace)
                line.append(f"{piece}: 1-handles: {len(cx.one_handles)}, 2-handles: {len(cx.two_handles)}")
            counts = assemble(results["X1"][0], results["X2"][0], args.n)
            if args.json:
                _emit(
                    {
                        "schema": SCHEMA,
                        "knot": knot.spec_str(),
                        "n": args.n,
                        "pieces": {
                            p: results[p][0].counts() for p in ("X1", "X2")
                        },
                        "assembled": counts.as_dict(),
                    }
                )
            else:
                print(f"{knot.spec_str()} (n={args.n})  " + "; ".join(line))
        if args.trace:
            body = {
                "schema": SCHEMA,
                "n": args.n,
                "traces": [t.to_json() for t in traces],
            }
            json.dump(body, trace_file, indent=2)
            trace_file.write("\n")
            if not args.json:
                print(f"trace written to {args.trace}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    knots = _knot_selection(args)
    all_pass = True
    for knot in knots:
        report = full_report(knot, args.n)
        all_pass = all_pass and report.passed
        if args.json:
            _emit(report.to_json())
        else:
            status = "pass" if report.passed else "FAIL"
            chi = next((c.actual for c in report.checks if c.name == "euler characteristic"), "?")
            print(f"{knot.spec_str()} (n={args.n}): {status}, chi={chi}")
            for c in report.checks:
                if not c.passed:
                    print(f"  FAIL {c.name}: expected {c.expected}, got {c.actual}")
    return EXIT_OK if all_pass else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handlecalc",
        description="Handle calculus for the Lefschetz pieces of knot-surgery elliptic surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_knot = sub.add_parser("knot", help="two-bridge/Stallings knot arithmetic")
    p_knot.add_argument("spec", help="twobridge:+,-,... | conway:2,-2,... | stallings:m=3")
    p_knot.add_argument("--json", action="store_true")

    p_fact = sub.add_parser("factorize", help="emit both piece factorizations")
    p_fact.add_argument("spec")
    p_fact.add_argument("--n", type=int, default=1)
    p_fact.add_argument("--json", action="store_true")

    for name, helptext in (("cancel", "run the cancellation schedules"),
                           ("verify", "run the full verification report")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("spec", nargs="?", default=None)
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--json", action="store_true")
        p.add_argument("--all-fibered", action="store_true", dest="all_fibered",
                       help="sweep every fibered two-bridge sign sequence up to --max-k")
        p.add_argument("--max-k", type=int, default=2, dest="max_k")
        if name == "cancel":
            p.add_argument("--trace", default=None, help="write the move traces to this JSON file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    handlers = {
        "knot": _cmd_knot,
        "factorize": _cmd_factorize,
        "cancel": _cmd_cancel,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ScheduleError, MoveError) as err:  # both carry the offending word, if any
        print(f"schedule failure: {err}", file=sys.stderr)
        if err.word is not None:
            print(f"offending word: {word_str(err.word)}", file=sys.stderr)
        return EXIT_SCHEDULE
    except (KnotSpecError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
