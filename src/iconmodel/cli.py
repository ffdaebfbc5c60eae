"""Command-line front end: parse, validate, infer, query, cq, cases.

Exit codes: 0 success (conforms / golden match), 1 violations or golden
mismatch, 2 usage, I/O, or parse errors. All diagnostics go to stderr;
data output goes to stdout so subcommands compose in pipelines. "-" as a
path reads from stdin. Set ICON_NO_COLOR to disable ANSI styling. A read
or write that fails (a missing file, a closed stdin, a full disk, help
text that cannot be written) is exit 2 with one "icon: <message>" line,
or exit 2 alone when stderr fails too; a closed stdout is not an error.

Each subcommand imports the library modules it runs, and no others, so a
short run does not pay for importing the whole package.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path
from typing import Optional

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


class _Refused(Exception):
    """A refused run: main alone reports it, as one "icon:" line, and exits 2."""


class _ArgumentParser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):  # argparse drops a failed write
        if message and (file := file or sys.stderr) is not None:
            file.write(message)


def _style(text: str, code: str) -> str:
    if (os.environ.get("ICON_NO_COLOR") is None and sys.stdout is not None
            and sys.stdout.isatty()):
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _green(text: str) -> str:
    return _style(text, "32")


def _red(text: str) -> str:
    return _style(text, "31")


def _read_source(path: str) -> str:
    """Read a UTF-8 document; an OSError propagates."""
    if path == "-" and sys.stdin is None:
        raise _Refused("-: standard input is closed")
    try:
        if path == "-":
            raw = getattr(sys.stdin, "buffer", None)
            if raw is None:  # a text stream put in place of stdin
                return sys.stdin.read()
            # decoded as read_text decodes a file: strict, universal newlines
            return io.TextIOWrapper(io.BytesIO(raw.read()), encoding="utf-8").read()
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise _Refused(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")


def _parse_source(path: str):
    from .turtle_io import ParseError, parse_turtle
    text = _read_source(path)
    try:
        return parse_turtle(text)
    except ParseError as exc:
        raise _Refused(f"{path}: line {exc.line}, col {exc.column}: {exc.message}")


def cmd_parse(args) -> int:
    result = _parse_source(args.path)
    print(f"{len(result.graph)} triples")
    for label in sorted(result.prefixes):
        print(f"@prefix {label}: <{result.prefixes[label]}>")
    return EXIT_OK


def cmd_validate(args) -> int:
    result = _parse_source(args.path)
    from .reasoner import RuleSet, close
    from .shapes import default_shapes, validate
    from .vocab import build_registry
    reg = build_registry()
    g = result.graph
    if not args.no_axioms:
        g = close(g, reg, RuleSet(shortcut_contraction=False)).graph()
    report = validate(g, default_shapes(reg), reg)
    if args.json:
        print(report.to_json())
    else:
        _print_report(report)
    return EXIT_OK if report.conforms else EXIT_FAIL


def _print_report(report):
    from .graph import term_str
    for e in report.entries:
        tag = e.severity.value.upper()
        if e.severity.value == "violation":
            tag = _red(tag)
        print(f"{tag} [{e.shape_id}] {term_str(e.focus)}: {e.message}")
    verdict = _green("conforms") if report.conforms else _red("does not conform")
    print(verdict)


_RULE_NAMES = {"hierarchy": "hierarchy", "shortcuts": "shortcut_contraction",
               "domainrange": "domain_range_typing"}


def cmd_infer(args) -> int:
    result = _parse_source(args.path)
    from .graph import GraphError
    from .reasoner import RuleSet, close
    from .turtle_io import serialize_turtle
    from .vocab import NAMESPACES, build_registry
    names = [n for n in args.rules.split(",") if n]
    if not names:
        raise _Refused("no rules selected")
    unknown = next((name for name in names if name not in _RULE_NAMES), None)
    if unknown is not None:
        raise _Refused(f"unknown rule name {unknown!r} "
                       f"(expected one of: {', '.join(sorted(_RULE_NAMES))})")
    rules = RuleSet(**{field: name in names for name, field in _RULE_NAMES.items()})
    closure = close(result.graph, build_registry(), rules)
    if args.emit == "base":
        out = closure.base
    elif args.emit == "inferred":
        out = closure.inferred
    else:
        out = closure.graph()
    prefixes = dict(NAMESPACES)
    prefixes.update(result.prefixes)
    try:
        text = serialize_turtle(out, prefixes)
    except GraphError as exc:
        raise _Refused(f"{args.path}: {exc}")
    print(text, end="")
    return EXIT_OK


def cmd_query(args) -> int:
    if args.graph == "-" and args.pattern == "-":
        raise _Refused("the graph and the pattern cannot both come from stdin")
    result = _parse_source(args.graph)
    try:
        doc = json.loads(_read_source(args.pattern))
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
        raise _Refused(f"{args.pattern}: bad JSON: {exc}")
    from .query import QueryError, evaluate, pattern_from_json, solutions_to_json
    g = result.graph
    if args.infer:
        from .reasoner import close
        from .vocab import build_registry
        g = close(g, build_registry()).graph()
    try:
        pattern, projection = pattern_from_json(doc, result.prefixes)
        solutions = evaluate(g, pattern, projection)
    except QueryError as exc:
        raise _Refused(str(exc))
    print(json.dumps(solutions_to_json(solutions), indent=2))
    return EXIT_OK


def _run_cqs(questions) -> bool:
    """Run each question over its case's closure, printing its solutions,
    and say whether every answer matched its golden. Each case is closed,
    and its golden read, once, with one registry."""
    from .casebook import load_case
    from .query import check_cq, load_golden, solutions_to_json
    from .reasoner import close
    from .vocab import build_registry
    reg = build_registry()
    closures: dict = {}
    goldens: dict = {}
    all_ok = True
    for cq in questions:
        if cq.case_id not in closures:
            closures[cq.case_id] = close(load_case(cq.case_id)[0], reg)
            goldens[cq.case_id] = load_golden(cq.case_id)
        result = check_cq(closures[cq.case_id], cq, goldens[cq.case_id])
        print(f"{cq.id} ({cq.case_id}): {cq.prose}")
        for row in solutions_to_json(result.solutions):
            parts = [f"{k} = {json.dumps(v) if isinstance(v, dict) else v}"
                     for k, v in sorted(row.items())]
            print("  " + "  ".join(parts))
        if not result.solutions:
            print("  (no solutions)")
        print("  " + (_green("GOLDEN MATCH") if result.matches_golden
                      else _red("GOLDEN MISMATCH")))
        all_ok &= result.matches_golden
    return all_ok


def cmd_cq(args) -> int:
    if args.id is not None and args.action != "run":
        raise _Refused(f"cq {args.action} takes no question id")
    if args.case is not None and args.action != "run-all":
        raise _Refused(f"cq {args.action} takes no --case; it applies to cq run-all")
    from .query import UnknownQuestionError, cq_catalog, find_cq
    if args.action == "list":
        for cq in cq_catalog():
            print(f"{cq.id} ({cq.case_id}): {cq.prose}")
        return EXIT_OK
    if args.action == "run":
        if not args.id:
            raise _Refused("cq run needs a question id")
        try:
            questions = [find_cq(args.id)]
        except UnknownQuestionError as exc:
            raise _Refused(str(exc))
    else:
        questions = cq_catalog()
        if args.case:
            questions = [cq for cq in questions if cq.case_id == args.case]
            if not questions:
                raise _Refused(f"no questions for case {args.case!r}")
    return EXIT_OK if _run_cqs(questions) else EXIT_FAIL


def cmd_cases(args) -> int:
    if args.action == "list" and (args.id is not None or args.out is not None):
        raise _Refused("cases list takes no case id and no --out")
    from .casebook import UnknownCaseError, case_document, case_meta, list_cases
    if args.action == "list":
        for case in list_cases():
            print(f"{case.id}  typology {case.typology}  {case.title}")
        return EXIT_OK
    # export
    if args.id is None and args.out is None:
        raise _Refused("cases export needs a case id or --out DIR")
    try:
        if args.out is not None:
            # an unknown id raises before the directory is made
            targets = [case_meta(args.id).id] if args.id else [c.id for c in list_cases()]
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            for case_id in targets:
                (out_dir / f"{case_id}.ttl").write_text(case_document(case_id),
                                                        "utf-8")
                print(f"wrote {out_dir / (case_id + '.ttl')}", file=sys.stderr)
        else:
            print(case_document(args.id), end="")
    except UnknownCaseError as exc:
        raise _Refused(str(exc))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="icon",
        description="Work with iconographic interpretation graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a Turtle document")
    p.add_argument("path", help='input file, or "-" for stdin')
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("validate", help="validate against the built-in shapes")
    p.add_argument("path")
    p.add_argument("--no-axioms", action="store_true",
                   help="validate the raw graph without hierarchy closure")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("infer", help="materialize entailments")
    p.add_argument("path")
    p.add_argument("--rules", default="hierarchy,shortcuts",
                   help="comma-separated: hierarchy, shortcuts, domainrange")
    p.add_argument("--emit", choices=["base", "inferred", "all"], default="all")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("query", help="run a JSON pattern over a graph")
    p.add_argument("graph", help="Turtle document")
    p.add_argument("pattern", help="JSON pattern file")
    p.add_argument("--infer", action="store_true",
                   help="query the closure instead of the asserted graph")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("cq", help="competency questions")
    p.add_argument("action", choices=["list", "run", "run-all"])
    p.add_argument("id", nargs="?", help="question id for run")
    p.add_argument("--case", help="restrict run-all to one case")
    p.set_defaults(func=cmd_cq)

    p = sub.add_parser("cases", help="shipped case studies")
    p.add_argument("action", choices=["list", "export"])
    p.add_argument("id", nargs="?", help="case id for export")
    p.add_argument("--out", help="directory to write exported fixtures to")
    p.set_defaults(func=cmd_cases)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse uses 2 for usage errors already; normalize --help to 0
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except (_Refused, OSError) as exc:
        report = f"icon: {exc}\n"
    for stream, text in ((sys.stderr, report), (sys.stdout, "")):
        try:
            if stream is not None:  # None when started with its fd closed
                stream.write(text)
                stream.flush()
        except OSError:  # the stream failed and keeps what it could not write
            try:  # point its descriptor at devnull, or the flush at exit fails
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            except OSError:  # a stream with no file descriptor
                pass
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
