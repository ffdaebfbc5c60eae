"""Parser and deterministic serializer for the Turtle subset used here.

Supported grammar: @prefix / @base directives, <absolute-iris>, CURIEs,
the "a" keyword, ";" predicate lists, "," object lists, labelled blank
nodes, anonymous "[ ... ]" property lists, quoted string literals with
\\" \\\\ \\n \\t escapes plus optional @lang or ^^datatype, and "#"
comments. Everything else (collections, numeric/boolean shorthand,
triple-quoted strings, quoted triples, and the bare blank-node statement
"[ ... ] ." with no predicate list after the brackets) is a hard parse
error, and so is "[" nesting more than 100 deep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

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
# tokenizer

_PN_LOCAL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.")
# characters that end or break an <IRIREF>
_IRI_STOP = frozenset(' \t\r\n<>"{}|^`')
_KEYWORDS = ("prefix", "base")  # the words after "@" that are not language tags


def _name_char(c: str) -> bool:
    """Can c continue a blank-node label, language tag or prefix label?"""
    return c != "" and (c.isalnum() or c in "_-")


def _is_name(s: str) -> bool:
    return s != "" and all(map(_name_char, s))


@dataclass
class _Token:
    kind: str  # IRIREF PNAME BLANK STRING PUNCT KEYWORD LANG DTSEP EOF
    value: str
    line: int
    col: int
    extra: tuple = ()


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _err(self, message: str, kind: ErrorKind, line=None, col=None):
        raise ParseError(line or self.line, col or self.col, message, kind)

    def _advance(self, n: int = 1):
        for _ in range(n):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _peek(self, k: int = 0) -> str:
        i = self.pos + k
        return self.text[i] if i < len(self.text) else ""

    def tokens(self):
        out = []
        while True:
            tok = self._next()
            out.append(tok)
            if tok.kind == "EOF":
                return out

    def _next(self) -> _Token:
        # skip whitespace and comments
        while True:
            c = self._peek()
            if c and c in " \t\r\n":
                self._advance()
            elif c == "#":
                while self._peek() not in ("", "\n"):
                    self._advance()
            else:
                break
        line, col = self.line, self.col
        c = self._peek()
        if c == "":
            return _Token("EOF", "", line, col)
        if c == "<":
            return self._iriref(line, col)
        if c == '"':
            return self._string(line, col)
        if c == "_" and self._peek(1) == ":":
            self._advance(2)
            label = self._name_chars()
            if not label:
                self._err("blank node label expected", ErrorKind.UNEXPECTED_TOKEN, line, col)
            return _Token("BLANK", label, line, col)
        if c in ".;,[]":
            self._advance()
            return _Token("PUNCT", c, line, col)
        if c == "(" or c == ")":
            self._err("collections are not supported", ErrorKind.UNEXPECTED_TOKEN, line, col)
        if c == "@":
            self._advance()
            word = self._name_chars()
            if word in _KEYWORDS:
                return _Token("KEYWORD", "@" + word, line, col)
            if word:
                return _Token("LANG", word, line, col)
            self._err("bad '@' token", ErrorKind.UNEXPECTED_TOKEN, line, col)
        if c == "^" and self._peek(1) == "^":
            self._advance(2)
            return _Token("DTSEP", "^^", line, col)
        if c.isdigit() or c in "+-":
            self._err("numeric shorthand literals are not supported",
                      ErrorKind.UNEXPECTED_TOKEN, line, col)
        if c.isalpha() or c == "_":
            word = self._name_chars()
            if self._peek() == ":":
                self._advance()
                local = self._local_name_chars()
                return _Token("PNAME", f"{word}:{local}", line, col, (word, local))
            if word == "a":
                return _Token("KEYWORD", "a", line, col)
            if word in ("true", "false"):
                self._err("boolean shorthand literals are not supported",
                          ErrorKind.UNEXPECTED_TOKEN, line, col)
            self._err(f"unexpected token {word!r}", ErrorKind.UNEXPECTED_TOKEN, line, col)
        if c == ":":
            self._advance()
            local = self._local_name_chars()
            return _Token("PNAME", f":{local}", line, col, ("", local))
        self._err(f"unexpected character {c!r}", ErrorKind.UNEXPECTED_TOKEN, line, col)

    def _name_chars(self) -> str:
        out = []
        while True:
            c = self._peek()
            if _name_char(c):
                out.append(c)
                self._advance()
            else:
                break
        return "".join(out)

    def _local_name_chars(self) -> str:
        # dots are allowed inside a local name but a trailing dot is the
        # statement terminator
        out = []
        while True:
            c = self._peek()
            if c in _PN_LOCAL_CHARS:
                if c == ".":
                    nxt = self._peek(1)
                    if nxt not in _PN_LOCAL_CHARS or nxt == ".":
                        break
                out.append(c)
                self._advance()
            else:
                break
        return "".join(out)

    def _iriref(self, line, col) -> _Token:
        self._advance()  # '<'
        if self._peek() == "<":
            self._err("quoted triples are not supported", ErrorKind.UNEXPECTED_TOKEN, line, col)
        out = []
        while True:
            c = self._peek()
            if c == ">":
                self._advance()
                return _Token("IRIREF", "".join(out), line, col)
            if c == "" or c in _IRI_STOP:
                self._err("unterminated or malformed IRI", ErrorKind.BAD_IRI, line, col)
            out.append(c)
            self._advance()
        # unreachable

    def _string(self, line, col) -> _Token:
        self._advance()  # opening quote
        if self._peek() == '"' and self._peek(1) == '"':
            self._err("triple-quoted strings are not supported",
                      ErrorKind.UNEXPECTED_TOKEN, line, col)
        out = []
        while True:
            c = self._peek()
            if c == '"':
                self._advance()
                return _Token("STRING", "".join(out), line, col)
            if c == "" or c == "\n":
                self._err("unterminated string literal", ErrorKind.BAD_LITERAL, line, col)
            if c == "\\":
                esc = self._peek(1)
                mapped = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}.get(esc)
                if mapped is None:
                    self._err(f"unsupported escape \\{esc}", ErrorKind.BAD_LITERAL,
                              self.line, self.col)
                out.append(mapped)
                self._advance(2)
            else:
                out.append(c)
                self._advance()


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text: str, base: Optional[Iri]):
        self.toks = _Lexer(text).tokens()
        self.i = 0
        self.graph = Graph()
        self.prefixes: PrefixMap = {}
        self.base = base
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
        line = tok.line
        col = tok.col
        raise ParseError(line, col, message, kind)

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
            if name.kind != "PNAME" or name.extra[1] != "":
                self._err(name, "prefix label expected after @prefix",
                          ErrorKind.UNEXPECTED_TOKEN)
            iriref = self._take()
            if iriref.kind != "IRIREF":
                self._err(iriref, "namespace IRI expected", ErrorKind.UNEXPECTED_TOKEN)
            self.prefixes[name.extra[0]] = iriref.value
        else:
            iriref = self._take()
            if iriref.kind != "IRIREF":
                self._err(iriref, "base IRI expected", ErrorKind.UNEXPECTED_TOKEN)
            self.base = Iri(iriref.value)
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
        try:
            return Iri(value)
        except ValueError:
            self._err(tok, f"bad IRI {value!r}", ErrorKind.BAD_IRI)

    def _resolve_curie(self, tok: _Token) -> Iri:
        prefix, local = tok.extra
        ns = self.prefixes.get(prefix)
        if ns is None:
            self._err(tok, f"undeclared prefix {prefix!r}", ErrorKind.UNDECLARED_PREFIX)
        return Iri(ns + local)


def parse_turtle(text: str, base: Optional[Iri] = None) -> ParseResult:
    return _Parser(text, base).parse()


# ---------------------------------------------------------------------------
# serializer

def _escape(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t"))


def _valid_local(local: str) -> bool:
    # the lexer ends a local name at a "." that no name character follows
    if local.endswith(".") or ".." in local:
        return False
    return all(c in _PN_LOCAL_CHARS for c in local)


def _contract(iri: Iri, by_ns: list[tuple[str, str]]) -> Optional[str]:
    # by_ns is sorted longest-namespace-first
    for ns, label in by_ns:
        if iri.value.startswith(ns):
            local = iri.value[len(ns):]
            if _valid_local(local):
                return f"{label}:{local}"
    return None


def _unreadable(what) -> GraphError:
    return GraphError(f"cannot serialize {what}: the Turtle reader would not "
                      "read it back")


def _render_term(t: Term, by_ns: list[tuple[str, str]]) -> str:
    if isinstance(t, Iri):
        curie = _contract(t, by_ns)
        if curie is not None:
            return curie
        if not _IRI_STOP.isdisjoint(t.value):
            raise _unreadable(repr(t))
        return f"<{t.value}>"
    if isinstance(t, BlankNode):
        if not _is_name(t.label):
            raise _unreadable(repr(t))
        return f"_:{t.label}"
    body = f'"{_escape(t.lexical)}"'
    if t.lang:
        if not _is_name(t.lang) or t.lang in _KEYWORDS:
            raise _unreadable(repr(t))
        return f"{body}@{t.lang}"
    if t.datatype and t.datatype.value != XSD_STRING:
        return f"{body}^^{_render_term(t.datatype, by_ns)}"
    return body


def serialize_turtle(graph: Graph, prefixes: PrefixMap) -> str:
    """Deterministic Turtle: prefixes sorted by label, subjects sorted by
    term order, predicates and objects sorted within each subject block.

    parse_turtle reads the output back to an isomorphic graph. A term or
    prefix it could not read back raises GraphError naming it.
    """
    for label, ns in prefixes.items():
        # "_:" starts a blank node; a label must lex as one PNAME prefix
        readable_label = label == "" or (
            (label[0].isalpha() or label[0] == "_") and label != "_"
            and _is_name(label))
        if not readable_label or not _IRI_STOP.isdisjoint(ns):
            raise _unreadable(f"prefix {label}: <{ns}>")
    by_ns = sorted(((ns, label) for label, ns in prefixes.items()),
                   key=lambda x: (-len(x[0]), x[1]))
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
            pname = "a" if pred == RDF_TYPE else _render_term(pred, by_ns)
            objs = ", ".join(_render_term(o, by_ns)
                             for o in sorted(by_pred[pred], key=term_key))
            pred_parts.append(f"{pname} {objs}")
        head = _render_term(subject, by_ns)
        blocks.append(f"{head} " + " ;\n    ".join(pred_parts) + " .")
    out = "\n".join(lines)
    if lines and blocks:
        out += "\n\n"
    return out + "\n\n".join(blocks) + ("\n" if blocks or lines else "")
