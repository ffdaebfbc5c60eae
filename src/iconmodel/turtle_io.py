"""Parser and deterministic serializer for the Turtle subset used here.

Supported grammar: @prefix / @base directives, <absolute-iris>, CURIEs,
the "a" keyword, ";" predicate lists, "," object lists, labelled blank
nodes, anonymous "[ ... ]" property lists, quoted string literals with
\\" \\\\ \\n \\r \\t escapes plus optional @lang or ^^datatype, and "#"
comments. Everything else (collections, numeric/boolean shorthand,
triple-quoted strings, quoted triples, and the bare blank-node statement
"[ ... ] ." with no predicate list after the brackets) is a hard parse
error, and so are "[" nesting more than 100 deep and a language tag whose
lower-case form is not a tag.

The token table _TABLE is the token grammar: the lexer matches its
patterns and nothing else, reading each token and the whitespace and
comments before it in one anchored regex match. The serializer checks
each IRI, CURIE, blank node label, language tag and prefix it writes by
matching it against the same table, so whatever it writes reads back as
the token it meant.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import (RDF_TYPE, XSD_STRING, BlankNode, Graph, GraphError, Iri, Literal,
                    PrefixMap, Term, Triple, term_key)

_MAX_NESTING = 100  # keeps the recursive descent inside the recursion limit


class ErrorKind(enum.Enum):
    UNEXPECTED_TOKEN = "UnexpectedToken"
    UNDECLARED_PREFIX = "UndeclaredPrefix"
    BAD_IRI = "BadIri"
    BAD_LITERAL = "BadLiteral"
    UNTERMINATED_STATEMENT = "UnterminatedStatement"


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str, kind: ErrorKind):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.kind = kind


@dataclass
class ParseResult:
    graph: Graph
    prefixes: PrefixMap
    base: Optional[Iri] = None


# ---------------------------------------------------------------------------
# token grammar

_NAME_CHAR = r"[\w-]"  # continues a blank-node label, language tag or prefix
_IRI_BODY = r'[^ \t\r\n<>"{}|^`]*'
_STRING_BODY = r'[^"\\\n]*(?:\\["\\nrt][^"\\\n]*)*'
_LOCAL = r"[A-Za-z0-9_-]*(?:\.[A-Za-z0-9_-]+)*"  # a "." must lead to more name

# The token grammar. At each position the patterns are tried in this order
# and the first that matches is the token. Every repetition nested in
# another starts with a character the inner one cannot match, so matching
# takes time linear in the input.
_TABLE = [
    ("IRIREF", rf"<(?P<iri>{_IRI_BODY})>"),
    ("STRING", rf'"(?!"")(?P<string>{_STRING_BODY})"'),
    ("BLANK", rf"_:(?P<label>{_NAME_CHAR}+)"),
    ("PUNCT", r"[.;,\[\]]"),
    ("KEYWORD", rf"@(?:prefix|base)(?!{_NAME_CHAR})|a(?!{_NAME_CHAR}|:)"),
    ("LANG", rf"@(?P<lang>{_NAME_CHAR}+)"),
    ("DTSEP", r"\^\^"),
    ("PNAME", rf"(?P<prefix>(?!_:)[^\W\d]{_NAME_CHAR}*|):{_LOCAL}"),
    ("EOF", r"\Z"),
]
# whitespace and comments
_SKIP_BODY = r"(?:[ \t\r\n]|#[^\n]*)*"
_SKIP = re.compile(_SKIP_BODY)
# One anchored match reads the skip and then the first _TABLE pattern that
# matches. The skip is captured in a lookahead and matched again through a
# backreference, which makes it atomic: a token that fails to match cannot
# backtrack into a comment and lex a token inside it.
_TOKEN = re.compile(rf"(?=(?P<skip>{_SKIP_BODY}))(?P=skip)(?:"
                    + "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TABLE) + ")")
# the group holding a token's value, where that is not the whole token
_VALUE = {"IRIREF": "iri", "STRING": "string", "BLANK": "label", "LANG": "lang"}
_STRING_PREFIX = re.compile('"' + _STRING_BODY)
_WORD = re.compile(_NAME_CHAR + "*")
_ESCAPE = re.compile(r'\\(["\\nrt])')
_UNESCAPE = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}


def _starts_name(c: str) -> bool:
    """Can a PNAME start with c: a letter, "_", or the ":" of an empty
    prefix? The pattern's \\w also admits numerals such as "²"."""
    return c.isalpha() or c == "_" or c == ":"


def _lexes_as(kind: str, text: str) -> bool:
    """Would the lexer read all of text as one token of this kind?"""
    m = _TOKEN.match(text)
    return (m is not None and m.lastgroup == kind and m.start(kind) == 0
            and m.end() == len(text) and (kind != "PNAME" or _starts_name(text[0])))


def _error_at(text: str, pos: int, message: str, kind: ErrorKind) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(line, pos - text.rfind("\n", 0, pos), message, kind)


def _lex_error(text: str, pos: int) -> ParseError:
    """Why no token starts at text[pos]."""
    c = text[pos]
    kind = ErrorKind.UNEXPECTED_TOKEN
    if text.startswith("<<", pos):
        message = "quoted triples are not supported"
    elif c == "<":
        message, kind = "unterminated or malformed IRI", ErrorKind.BAD_IRI
    elif text.startswith('"""', pos):
        message = "triple-quoted strings are not supported"
    elif c == '"':
        kind = ErrorKind.BAD_LITERAL
        stop = _STRING_PREFIX.match(text, pos).end()
        if text.startswith("\\", stop):
            pos, message = stop, f"unsupported escape \\{text[stop + 1:stop + 2]}"
        else:
            message = "unterminated string literal"
    elif text.startswith("_:", pos):
        message = "blank node label expected"
    elif c in "()":
        message = "collections are not supported"
    elif c == "@":
        message = "bad '@' token"
    elif c.isdigit() or c in "+-":
        message = "numeric shorthand literals are not supported"
    elif not (c.isalpha() or c == "_"):
        message = f"unexpected character {c!r}"
    elif (word := _WORD.match(text, pos)[0]) in ("true", "false"):
        message = "boolean shorthand literals are not supported"
    else:
        message = f"unexpected token {word!r}"
    return _error_at(text, pos, message, kind)


def _tokens(text: str) -> tuple[list[str], list[str], list[int]]:
    """The document's tokens, one anchored match each, ending with EOF, as
    three parallel lists: each token's kind (a kind named in _TABLE), its
    value, and its character offset into the document. Flat lists of
    strings and ints hold no per-token container for the cyclic garbage
    collector to count and traverse, as a tuple per token would."""
    kinds, values, starts = [], [], []
    add_kind, add_value, add_start = kinds.append, values.append, starts.append
    match, value_group = _TOKEN.match, _VALUE.get
    pos = 0
    while True:
        m = match(text, pos)
        if m is None:
            raise _lex_error(text, _SKIP.match(text, pos).end())
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "PNAME" and not _starts_name(text[start]):
            raise _lex_error(text, start)
        value = m[value_group(kind, kind)]
        if kind == "STRING" and "\\" in value:
            value = _ESCAPE.sub(lambda e: _UNESCAPE[e[1]], value)
        add_kind(kind)
        add_value(value)
        add_start(start)
        if kind == "EOF":
            return kinds, values, starts
        pos = m.end()


# ---------------------------------------------------------------------------
# parser

class _Parser:
    """Recursive descent over the token lists. Token i is (kinds[i],
    values[i], starts[i]), and a token is passed around by its index.
    self.i indexes the next token; taking the EOF token always ends in a
    ParseError, so self.i never runs past it."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.values, self.starts = _tokens(text)
        self.i = 0
        self.triples: list[Triple] = []
        self.prefixes: PrefixMap = {}
        self.base: Optional[Iri] = None
        # one Iri per distinct IRI: each is checked and built once, and
        # equal terms are the same object
        self._iris: dict[str, Iri] = {RDF_TYPE.value: RDF_TYPE}
        # CURIE text -> Iri under the prefixes declared so far
        self._curies: dict[str, Iri] = {}
        self._anon = 0
        self._depth = 0
        # "[ ]" labels must not collide with any explicit "_:" label;
        # collected at the first "["
        self._explicit: Optional[set[str]] = None

    def _err(self, i: int, message: str, kind: ErrorKind):
        raise _error_at(self.text, self.starts[i], message, kind)

    def _is(self, i: int, punct: str) -> bool:
        return self.kinds[i] == "PUNCT" and self.values[i] == punct

    def parse(self) -> ParseResult:
        kinds, values = self.kinds, self.values
        while kinds[i := self.i] != "EOF":
            if kinds[i] == "KEYWORD" and values[i] in ("@prefix", "@base"):
                self._directive()
            else:
                self._triples()
        del self.kinds, self.values, self.starts  # spent: free them before the graph
        return ParseResult(Graph(self.triples).freeze(), dict(self.prefixes), self.base)

    def _take(self) -> int:
        self.i += 1
        return self.i - 1

    def _directive(self):
        kinds, values = self.kinds, self.values
        if values[self._take()] == "@prefix":
            name = self._take()
            if kinds[name] != "PNAME" or not values[name].endswith(":"):
                self._err(name, "prefix label expected after @prefix",
                          ErrorKind.UNEXPECTED_TOKEN)
            iriref = self._take()
            if kinds[iriref] != "IRIREF":
                self._err(iriref, "namespace IRI expected", ErrorKind.UNEXPECTED_TOKEN)
            label, ns = values[name][:-1], values[iriref]
            if self.prefixes.get(label) != ns:
                self.prefixes[label] = ns
                # forget the CURIEs resolved under the old namespace
                stale = label + ":"
                for curie in [c for c in self._curies if c.startswith(stale)]:
                    del self._curies[curie]
        else:
            iriref = self._take()
            if kinds[iriref] != "IRIREF":
                self._err(iriref, "base IRI expected", ErrorKind.UNEXPECTED_TOKEN)
            self.base = self._resolve_iri(iriref)
        dot = self._take()
        if not self._is(dot, "."):
            self._err(dot, "'.' expected after directive", ErrorKind.UNTERMINATED_STATEMENT)

    def _triples(self):
        subject = self._subject()
        self._predicate_object_list(subject)
        dot = self._take()
        if not self._is(dot, "."):
            self._err(dot, "'.' expected at end of statement",
                      ErrorKind.UNTERMINATED_STATEMENT)

    def _subject(self):
        i = self.i
        kind, value = self.kinds[i], self.values[i]
        if kind == "PUNCT" and value == "[":
            return self._anon_node()
        self.i += 1
        if kind == "PNAME":
            return self._curies.get(value) or self._resolve_curie(i)
        if kind == "IRIREF":
            return self._resolve_iri(i)
        if kind == "BLANK":
            return BlankNode(value)
        self._err(i, "subject expected", ErrorKind.UNEXPECTED_TOKEN)

    def _predicate_object_list(self, subject):
        kinds, values = self.kinds, self.values
        curies, append = self._curies, self.triples.append
        while True:
            i = self.i
            kind, value = kinds[i], values[i]
            self.i += 1
            if kind == "PNAME":
                pred = curies.get(value) or self._resolve_curie(i)
            elif kind == "KEYWORD" and value == "a":
                pred = RDF_TYPE
            elif kind == "IRIREF":
                pred = self._resolve_iri(i)
            else:
                self._err(i, "predicate expected", ErrorKind.UNEXPECTED_TOKEN)
            while True:
                append(Triple(subject, pred, self._object()))
                i = self.i
                kind, value = kinds[i], values[i]
                if not (kind == "PUNCT" and value == ","):
                    break
                self.i += 1
            if not (kind == "PUNCT" and value == ";"):
                return
            self.i += 1
            # tolerate trailing ';' before '.' or ']'
            i = self.i
            if kinds[i] == "PUNCT" and values[i] in (".", "]"):
                return

    def _object(self) -> Term:
        i = self.i
        kind, value = self.kinds[i], self.values[i]
        if kind == "PUNCT" and value == "[":
            return self._anon_node()
        self.i += 1
        if kind == "PNAME":
            return self._curies.get(value) or self._resolve_curie(i)
        if kind == "IRIREF":
            return self._resolve_iri(i)
        if kind == "BLANK":
            return BlankNode(value)
        if kind == "STRING":
            return self._literal(value)
        self._err(i, "object expected", ErrorKind.UNEXPECTED_TOKEN)

    def _literal(self, lexical: str) -> Literal:
        i = self.i
        kind, value = self.kinds[i], self.values[i]
        if kind == "LANG":
            self.i += 1
            # Literal lower-cases the tag, and the serializer writes that form
            if not _lexes_as("LANG", "@" + value.lower()):
                self._err(i, f"language tag {value!r} is not a tag once lower-cased",
                          ErrorKind.BAD_LITERAL)
            return Literal(lexical, lang=value)
        if kind == "DTSEP":
            self.i += 1
            dt = self._take()
            if self.kinds[dt] == "IRIREF":
                return Literal(lexical, datatype=self._resolve_iri(dt))
            if self.kinds[dt] == "PNAME":
                return Literal(lexical, datatype=self._resolve_curie(dt))
            self._err(dt, "datatype IRI expected", ErrorKind.BAD_LITERAL)
        return Literal(lexical)

    def _anon_node(self) -> BlankNode:
        opener = self._take()  # '['
        if self._depth == _MAX_NESTING:
            self._err(opener, f"'[' nested deeper than {_MAX_NESTING}",
                      ErrorKind.UNEXPECTED_TOKEN)
        if self._explicit is None:
            self._explicit = {value for kind, value in zip(self.kinds, self.values)
                              if kind == "BLANK"}
        self._anon += 1
        while f"b{self._anon}" in self._explicit:
            self._anon += 1
        node = BlankNode(f"b{self._anon}")
        if not self._is(self.i, "]"):
            self._depth += 1
            self._predicate_object_list(node)
            self._depth -= 1
        closer = self._take()
        if not self._is(closer, "]"):
            self._err(closer, "']' expected", ErrorKind.UNTERMINATED_STATEMENT)
        return node

    def _resolve_iri(self, i: int) -> Iri:
        value = self.values[i]
        if ":" not in value:
            if self.base is None:
                self._err(i, f"relative IRI {value!r} with no base", ErrorKind.BAD_IRI)
            value = self.base + value
        return self._iri(i, value)

    def _resolve_curie(self, i: int) -> Iri:
        curie = self.values[i]
        prefix, _, local = curie.partition(":")
        ns = self.prefixes.get(prefix)
        if ns is None:
            self._err(i, f"undeclared prefix {prefix!r}", ErrorKind.UNDECLARED_PREFIX)
        # a relative namespace gives no IRI
        iri = self._curies[curie] = self._iri(i, ns + local)
        return iri

    def _iri(self, i: int, value: str) -> Iri:
        iri = self._iris.get(value)
        if iri is None:
            try:
                iri = self._iris[value] = Iri(value)
            except ValueError:
                self._err(i, f"bad IRI {value!r}", ErrorKind.BAD_IRI)
        return iri


def parse_turtle(text: str) -> ParseResult:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# serializer

def _escape(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


def _contract(iri: Iri, by_ns: list[tuple[str, str]]) -> Optional[str]:
    # by_ns is sorted longest-namespace-first
    for ns, label in by_ns:
        if iri.startswith(ns):
            curie = f"{label}:{iri[len(ns):]}"
            if _lexes_as("PNAME", curie):
                return curie
    return None


def _unreadable(what) -> GraphError:
    return GraphError(f"cannot serialize {what}: the Turtle reader would not "
                      "read it back")


def _checked(kind: str, text: str, t: Term) -> str:
    if not _lexes_as(kind, text):
        raise _unreadable(repr(t))
    return text


def _render_term(t: Term, by_ns: list[tuple[str, str]]) -> str:
    if isinstance(t, Iri):
        return _contract(t, by_ns) or _checked("IRIREF", f"<{t}>", t)
    if isinstance(t, BlankNode):
        return _checked("BLANK", f"_:{t.label}", t)
    body = f'"{_escape(t.lexical)}"'
    if t.lang:
        return body + _checked("LANG", f"@{t.lang}", t)
    if t.datatype and t.datatype != XSD_STRING:
        return f"{body}^^{_render_term(t.datatype, by_ns)}"
    return body


def serialize_turtle(graph: Iterable[Triple], prefixes: PrefixMap) -> str:
    """Deterministic Turtle: prefixes sorted by label, subjects sorted by
    term order, predicates and objects sorted within each subject block.

    parse_turtle reads the output back to an isomorphic graph. A term or
    prefix it could not read back raises GraphError naming it.
    """
    for label, ns in prefixes.items():
        if not (_lexes_as("PNAME", f"{label}:") and _lexes_as("IRIREF", f"<{ns}>")):
            raise _unreadable(f"prefix {label}: <{ns}>")
    by_ns = sorted(((ns, label) for label, ns in prefixes.items()),
                   key=lambda x: (-len(x[0]), x[1]))
    rendered: dict[Term, str] = {}  # each distinct term is rendered once

    def render(t: Term) -> str:
        text = rendered.get(t)
        if text is None:
            text = rendered[t] = _render_term(t, by_ns)
        return text

    lines = [f"@prefix {label}: <{ns}> ." for label, ns in sorted(prefixes.items())]
    blocks = []
    by_subject: dict[Term, list[Triple]] = {}
    for t in graph:
        by_subject.setdefault(t.subject, []).append(t)
    for subject in sorted(by_subject, key=term_key):
        by_pred: dict[Iri, list[Term]] = {}
        for t in by_subject[subject]:
            by_pred.setdefault(t.predicate, []).append(t.object)
        pred_parts = []
        for pred in sorted(by_pred, key=term_key):
            pname = "a" if pred == RDF_TYPE else render(pred)
            objs = ", ".join(map(render, sorted(by_pred[pred], key=term_key)))
            pred_parts.append(f"{pname} {objs}")
        head = render(subject)
        blocks.append(f"{head} " + " ;\n    ".join(pred_parts) + " .")
    out = "\n".join(lines)
    if lines and blocks:
        out += "\n\n"
    return out + "\n\n".join(blocks) + ("\n" if blocks or lines else "")
