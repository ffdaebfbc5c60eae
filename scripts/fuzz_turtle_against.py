#!/usr/bin/env python3
"""Differential fuzz of the Turtle parser against another checkout's.

Draws random documents from a Turtle-heavy alphabet, parses each with
this checkout's iconmodel and with the one under OTHER_SRC (for example
an older commit unpacked with `git archive`), and compares the graph,
prefixes and base, or the error's (line, column, kind, message). Any
difference fails, and so does a ValueError from either parser. Every
document this checkout accepts must also serialize and read back to an
isomorphic graph. Every document both checkouts accept must serialize to
the same text under both, or fail with the same GraphError message.
Prints the first failing document and exits 1, or prints the counts and
exits 0.

    PYTHONPATH=src python3 scripts/fuzz_turtle_against.py OTHER_SRC N SEED
"""

import random
import sys
from pathlib import Path

from iconmodel import turtle_io
from iconmodel.graph import GraphError, isomorphic
from iconmodel.turtle_io import ParseError, parse_turtle, serialize_turtle
from stage_times_against import load_as

FRAGMENTS = [
    "@prefix", "@base", "@PREFIX", "ex:", "e:", ":", "ex:a", "e:s", "e:p", "e:o", "ex:a.b",
    "ex:a..b", "ex:.a", "ex:a.", "_x:y", "_:", "_:b", "_:b1", "_", "<http://e/a>", "<http://e/>",
    "<a>", "<", ">", "<<", ">>", "<a b>", '<a"', '"', '""', '"""', '"x"', '"a\\"b"', '"\\q"',
    "\\", "\\n", "\\t", '\\"', "@en", "@en-US", "<>", "<s>", "@base <s> .", "@prefix e: <> .",
    "@", "@İ", "@1", "^^", "^", "^^ex:d", "^^<http://e/d>", "a", "ab", "a-", "true", "false",
    "42", "+1", "-", "²", "½", "Ⅷ", "一", "İ", "é", "x", "_", ".", ";", ",", "[", "]", "(", ")",
    " ", "\t", "\n", "\r", "#c", "# ", "\f", "%", "{", "|", "`", "~", "0", "9",
    # comments holding tokens, which a lexer that backtracks into a
    # comment would read
    "#e:s a ", "# <http://e/a> ", '#"x" ', "#_:b ",
    # the lexer's guarded repeats: a local name's dotted tail, comment runs
    # and a prefix label with "-"
    "ex:a.-", "ex:-.a", "ex:a.b.", "# #", "#\n#", "e-x:", "e-x:a"]
PROLOGUES = ["@prefix e: <http://e/> .\n", "@prefix ex: <http://ex/> .\n",
             "@prefix e-x: <http://e-x/> .\n",
             "@base <http://b/> .\n", ""]
STATEMENTS = ["e:s e:p e:o .", 'e:s e:p "x"@en .', "_:b e:p [ e:q e:o ] .",
              "e:s a e:C ; e:p <o>, ex:a.b .", 'e:s e:p "v"^^e:d .', "<s> <p> <o> ."]


def document(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return "".join(rng.choice(FRAGMENTS) for _ in range(rng.randrange(1, 12)))
    parts = [rng.choice(PROLOGUES), rng.choice(PROLOGUES)]
    for _ in range(rng.randrange(1, 4)):
        s = rng.choice(STATEMENTS)
        if rng.random() < 0.7:
            i = rng.randrange(len(s) + 1)
            s = s[:i] + rng.choice(FRAGMENTS) + s[i + rng.randrange(3):]
        parts.append(s + rng.choice([" ", "\n", "\t", "#c\n", ""]))
    return "".join(parts)


def outcome(parse, error_type, text):
    try:
        r = parse(text)
    except error_type as e:
        return ("error", e.line, e.column, e.kind.name, e.message)
    except ValueError as e:
        return ("crash", str(e))
    return ("ok", sorted(map(repr, r.graph)), sorted(r.prefixes.items()), repr(r.base))


def written(module, graph_error, text: str) -> str:
    """What a turtle_io module's serialize_turtle makes of the graph and
    prefixes that its parse_turtle reads from text: the text, or the
    GraphError's message."""
    r = module.parse_turtle(text)
    try:
        return module.serialize_turtle(r.graph, r.prefixes)
    except graph_error as e:
        return f"GraphError: {e}"


def reads_back(text: str) -> bool:
    r = parse_turtle(text)
    try:
        out = serialize_turtle(r.graph, r.prefixes)
    except GraphError:
        return False
    return isomorphic(r.graph, parse_turtle(out).graph)


def main(other_src: str, n: int, seed: int) -> int:
    other_tree = load_as("other_iconmodel", Path(other_src))
    other, other_graph_error = other_tree["turtle_io"], other_tree["graph"].GraphError
    rng = random.Random(seed)
    counts = {"parsed by the other": 0, "serialized identically": 0}
    for _ in range(n):
        text = document(rng)
        theirs = outcome(other.parse_turtle, other.ParseError, text)
        ours = outcome(parse_turtle, ParseError, text)
        counts["parsed by the other"] += theirs[0] == "ok"
        if ours[0] == "ok" and not reads_back(text):
            print("does not read back:", repr(text))
            return 1
        if ours[0] == theirs[0] == "ok":
            here = written(turtle_io, GraphError, text)
            there = written(other, other_graph_error, text)
            if here != there:
                print("serialized differently:", repr(text), repr(there), repr(here),
                      sep="\n  ")
                return 1
            counts["serialized identically"] += 1
        if theirs != ours or ours[0] == "crash":
            print("difference or ValueError:", repr(text), theirs, ours, sep="\n  ")
            return 1
    print(f"{n} documents parsed alike:", ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])))
