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
patterns and nothing else. The serializer checks each IRI, CURIE, blank
node label, language tag and prefix it writes by matching it against the
same table, so whatever it writes reads back as the token it meant.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import (XSD_STRING, BlankNode, Graph, GraphError, Iri, Literal, Term,
                    Triple, term_key)

PrefixMap = dict[str, str]

RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

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
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TABLE))
# the group holding a token's value, where that is not the whole token
_VALUE = {"IRIREF": "iri", "STRING": "string", "BLANK": "label", "LANG": "lang"}
# whitespace and comments; nothing follows it, so it never backtracks
_SKIP = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*")
_STRING_PREFIX = re.compile('"' + _STRING_BODY)
_WORD = re.compile(_NAME_CHAR + "*")
_ESCAPE = re.compile(r'\\(["\\nrt])')
_UNESCAPE = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}


@dataclass(slots=True)
class _Token:
    kind: str  # a kind named in _TABLE
    value: str
    pos: int  # character offset into the document


def _match(text: str, pos: int) -> Optional[re.Match]:
    """The token at text[pos], or None where no token starts there."""
    m = _TOKEN.match(text, pos)
    # \w also admits numerals such as "²", which cannot start a name
    if m is not None and m.lastgroup == "PNAME":
        c = m["prefix"][:1]
        if c and not (c.isalpha() or c == "_"):
            return None
    return m


def _lexes_as(kind: str, text: str) -> bool:
    """Would the lexer read all of text as one token of this kind?"""
    m = _match(text, 0)
    return m is not None and m.lastgroup == kind and m.end() == len(text)


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


def _tokens(text: str) -> list[_Token]:
    out = []
    pos = 0
    while True:
        pos = _SKIP.match(text, pos).end()
        m = _match(text, pos)
        if m is None:
            raise _lex_error(text, pos)
        kind = m.lastgroup
        value = m[_VALUE.get(kind, kind)]
        if kind == "STRING" and "\\" in value:
            value = _ESCAPE.sub(lambda e: _UNESCAPE[e[1]], value)
        out.append(_Token(kind, value, pos))
        if kind == "EOF":
            return out
        pos = m.end()


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text: str, base: Optional[Iri]):
        self.text = text
        self.toks = _tokens(text)
        self.i = 0
        self.graph = Graph()
        self.prefixes: PrefixMap = {}
        self.base = base
        # one Iri per distinct IRI: each is checked and built once, and
        # equal terms are the same object
        self._iris: dict[str, Iri] = {RDF_TYPE.value: RDF_TYPE}
        self._anon = 0
        self._depth = 0
        # "[ ]" labels must not collide with any explicit "_:" label
        self._explicit = {tok.value for tok in self.toks if tok.kind == "BLANK"}

    def _peek(self) -> _Token:
        return self.toks[self.i]

    def _take(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def _err(self, tok: _Token, message: str, kind: ErrorKind):
        raise _error_at(self.text, tok.pos, message, kind)

    def parse(self) -> ParseResult:
        while self._peek().kind != "EOF":
            tok = self._peek()
            if tok.kind == "KEYWORD" and tok.value in ("@prefix", "@base"):
                self._directive()
            else:
                self._triples()
        return ParseResult(self.graph.freeze(), dict(self.prefixes), self.base)

    def _directive(self):
        kw = self._take()
        if kw.value == "@prefix":
            name = self._take()
            if name.kind != "PNAME" or not name.value.endswith(":"):
                self._err(name, "prefix label expected after @prefix",
                          ErrorKind.UNEXPECTED_TOKEN)
            iriref = self._take()
            if iriref.kind != "IRIREF":
                self._err(iriref, "namespace IRI expected", ErrorKind.UNEXPECTED_TOKEN)
            self.prefixes[name.value[:-1]] = iriref.value
        else:
            iriref = self._take()
            if iriref.kind != "IRIREF":
                self._err(iriref, "base IRI expected", ErrorKind.UNEXPECTED_TOKEN)
            self.base = self._resolve_iri(iriref)
        dot = self._take()
        if not (dot.kind == "PUNCT" and dot.value == "."):
            self._err(dot, "'.' expected after directive", ErrorKind.UNTERMINATED_STATEMENT)

    def _triples(self):
        subject = self._subject()
        self._predicate_object_list(subject)
        dot = self._take()
        if not (dot.kind == "PUNCT" and dot.value == "."):
            self._err(dot, "'.' expected at end of statement",
                      ErrorKind.UNTERMINATED_STATEMENT)

    def _subject(self):
        tok = self._peek()
        if tok.kind == "PUNCT" and tok.value == "[":
            return self._anon_node()
        tok = self._take()
        if tok.kind == "IRIREF":
            return self._resolve_iri(tok)
        if tok.kind == "PNAME":
            return self._resolve_curie(tok)
        if tok.kind == "BLANK":
            return BlankNode(tok.value)
        self._err(tok, "subject expected", ErrorKind.UNEXPECTED_TOKEN)

    def _predicate_object_list(self, subject):
        while True:
            pred = self._predicate()
            while True:
                obj = self._object()
                self.graph.insert(Triple(subject, pred, obj))
                nxt = self._peek()
                if nxt.kind == "PUNCT" and nxt.value == ",":
                    self._take()
                    continue
                break
            nxt = self._peek()
            if nxt.kind == "PUNCT" and nxt.value == ";":
                self._take()
                # tolerate trailing ';' before '.' or ']'
                after = self._peek()
                if after.kind == "PUNCT" and after.value in (".", "]"):
                    break
                continue
            break

    def _predicate(self) -> Iri:
        tok = self._take()
        if tok.kind == "KEYWORD" and tok.value == "a":
            return RDF_TYPE
        if tok.kind == "IRIREF":
            return self._resolve_iri(tok)
        if tok.kind == "PNAME":
            return self._resolve_curie(tok)
        self._err(tok, "predicate expected", ErrorKind.UNEXPECTED_TOKEN)

    def _object(self) -> Term:
        tok = self._peek()
        if tok.kind == "PUNCT" and tok.value == "[":
            return self._anon_node()
        tok = self._take()
        if tok.kind == "IRIREF":
            return self._resolve_iri(tok)
        if tok.kind == "PNAME":
            return self._resolve_curie(tok)
        if tok.kind == "BLANK":
            return BlankNode(tok.value)
        if tok.kind == "STRING":
            return self._literal(tok)
        self._err(tok, "object expected", ErrorKind.UNEXPECTED_TOKEN)

    def _literal(self, tok: _Token) -> Literal:
        nxt = self._peek()
        if nxt.kind == "LANG":
            self._take()
            # Literal lower-cases the tag, and the serializer writes that form
            if not _lexes_as("LANG", "@" + nxt.value.lower()):
                self._err(nxt, f"language tag {nxt.value!r} is not a tag once lower-cased",
                          ErrorKind.BAD_LITERAL)
            return Literal(tok.value, lang=nxt.value)
        if nxt.kind == "DTSEP":
            self._take()
            dtok = self._take()
            if dtok.kind == "IRIREF":
                return Literal(tok.value, datatype=self._resolve_iri(dtok))
            if dtok.kind == "PNAME":
                return Literal(tok.value, datatype=self._resolve_curie(dtok))
            self._err(dtok, "datatype IRI expected", ErrorKind.BAD_LITERAL)
        return Literal(tok.value)

    def _anon_node(self) -> BlankNode:
        opener = self._take()  # '['
        if self._depth == _MAX_NESTING:
            self._err(opener, f"'[' nested deeper than {_MAX_NESTING}",
                      ErrorKind.UNEXPECTED_TOKEN)
        self._anon += 1
        while f"b{self._anon}" in self._explicit:
            self._anon += 1
        node = BlankNode(f"b{self._anon}")
        nxt = self._peek()
        if not (nxt.kind == "PUNCT" and nxt.value == "]"):
            self._depth += 1
            self._predicate_object_list(node)
            self._depth -= 1
        closer = self._take()
        if not (closer.kind == "PUNCT" and closer.value == "]"):
            self._err(closer, "']' expected", ErrorKind.UNTERMINATED_STATEMENT)
        return node

    def _resolve_iri(self, tok: _Token) -> Iri:
        value = tok.value
        if ":" not in value:
            if self.base is None:
                self._err(tok, f"relative IRI {value!r} with no base", ErrorKind.BAD_IRI)
            value = self.base.value + value
        return self._iri(tok, value)

    def _resolve_curie(self, tok: _Token) -> Iri:
        prefix, _, local = tok.value.partition(":")
        ns = self.prefixes.get(prefix)
        if ns is None:
            self._err(tok, f"undeclared prefix {prefix!r}", ErrorKind.UNDECLARED_PREFIX)
        return self._iri(tok, ns + local)  # a relative namespace gives no IRI

    def _iri(self, tok: _Token, value: str) -> Iri:
        iri = self._iris.get(value)
        if iri is None:
            try:
                iri = self._iris[value] = Iri(value)
            except ValueError:
                self._err(tok, f"bad IRI {value!r}", ErrorKind.BAD_IRI)
        return iri


def parse_turtle(text: str, base: Optional[Iri] = None) -> ParseResult:
    return _Parser(text, base).parse()


# ---------------------------------------------------------------------------
# serializer

def _escape(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


def _contract(iri: Iri, by_ns: list[tuple[str, str]]) -> Optional[str]:
    # by_ns is sorted longest-namespace-first
    for ns, label in by_ns:
        if iri.value.startswith(ns):
            curie = f"{label}:{iri.value[len(ns):]}"
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
        return _contract(t, by_ns) or _checked("IRIREF", f"<{t.value}>", t)
    if isinstance(t, BlankNode):
        return _checked("BLANK", f"_:{t.label}", t)
    body = f'"{_escape(t.lexical)}"'
    if t.lang:
        return body + _checked("LANG", f"@{t.lang}", t)
    if t.datatype and t.datatype.value != XSD_STRING:
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
