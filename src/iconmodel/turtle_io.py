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

The token table _TABLE is the token grammar. The lexer reads a whole
document with one findall over a pattern built from it: each match
skips all whitespace and comments, so no token starts inside a comment,
and captures the first _TABLE pattern that matches; the skip loops
once per comment, not per whitespace character. A token is its own
text, and _kind alone tells its kind from that text. It also refuses a
prefixed name that starts with a numeral such as "²", which the pattern
admits. Where no token matches, the pattern's last branch takes the
rest of the text, so a lex error ends the scan. A token's offset is
found only for an error, by lexing the document again. The parser turns
a CURIE or <IRI> token into an Iri in one method, _Parser._node, cached
by token text; redefining a prefix (the base) drops only its IRIs.
The serializer renders each distinct term once. It checks every prefix,
CURIE and language tag it writes against the same pattern, and all
<IRI> and _:label texts in one findall over their space-joined
texts, so whatever it writes reads back as the token it meant. It sorts
the triples once by their terms' ranks and writes them in one join.
"""

from __future__ import annotations

import enum
import re
from itertools import chain, groupby, islice
from typing import Iterable, NamedTuple, Optional

from .graph import (RDF_TYPE, XSD_STRING, BlankNode, Graph, GraphError, Iri, Literal,
                    PrefixMap, Triple, _triple, term_key)

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


class ParseResult(NamedTuple):
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
    ("IRIREF", rf"<{_IRI_BODY}>"),
    ("STRING", rf'"(?!""){_STRING_BODY}"'),
    ("BLANK", rf"_:{_NAME_CHAR}+"),
    ("PUNCT", r"[.;,\[\]]"),
    ("KEYWORD", rf"@(?:prefix|base)(?!{_NAME_CHAR})|a(?!{_NAME_CHAR}|:)"),
    ("LANG", rf"@{_NAME_CHAR}+"),
    ("DTSEP", r"\^\^"),
    ("PNAME", rf"(?:(?!_:)[^\W\d]{_NAME_CHAR}*)?:{_LOCAL}"),
    ("EOF", r"\Z"),
]
# A skip over whitespace and comments, then the token as the one group.
# Where no _TABLE pattern matches, the last branch takes the rest of the
# text, so a match never backtracks into the skip, and findall never
# searches on past a lex error.
_LEX = re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*("
                  + "|".join(pattern for _, pattern in _TABLE) + r"|[\s\S]+)")
_STRING_PREFIX = re.compile('"' + _STRING_BODY)
_WORD = re.compile(_NAME_CHAR + "*")
_ESCAPE = re.compile(r'\\(["\\nrt])')
_UNESCAPE = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}
# the kind of every other token but BLANK and PNAME, by its first character
_KIND_BY_START = {"<": "IRIREF", '"': "STRING", "@": "LANG", "^": "DTSEP", "": "EOF",
                  **dict.fromkeys(".;,[]", "PUNCT")}


def _kind(token: str) -> Optional[str]:
    """The _TABLE kind of a token the lexer read, told from its text, or
    None for a PNAME that starts with a numeral such as "²": the pattern's
    [^\\W\\d] admits one, but a name starts with a letter, "_", or the ":"
    of an empty prefix."""
    if token in ("@prefix", "@base", "a"):
        return "KEYWORD"
    if token.startswith("_:"):
        return "BLANK"
    kind = _KIND_BY_START.get(token[:1], "PNAME")
    if kind == "PNAME" and not (token[0].isalpha() or token[0] in "_:"):
        return None
    return kind


def _lexes_as(kind: Optional[str], text: str) -> bool:
    """Would the lexer read all of text as one token of this kind? The
    space appended ends every token and starts none, so the last branch,
    which takes the rest of the text, cannot match just the text."""
    return _LEX.match(text + " ").span(1) == (0, len(text)) and _kind(text) == kind


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


def _ends_in_error(tokens: list[str]) -> bool:
    """Did the last branch, where no token matched, take the rest of the text?"""
    last = tokens[-2] if len(tokens) > 1 else ""
    return last != "" and not _lexes_as(_kind(last), last)


def _located(text: str, tokens: list[str], i: int, message: str,
             kind: ErrorKind) -> ParseError:
    """The error to raise at tokens[i]: text's first lex error if it has
    one, as a lexer that refused text before the parser read it would, and
    otherwise this one. Its offset is found by lexing text again."""
    bad = next((j for j, t in enumerate(tokens) if _kind(t) is None), None)
    if bad is None and _ends_in_error(tokens):
        bad = len(tokens) - 2
    start = next(islice(_LEX.finditer(text), i if bad is None else bad, None)).start(1)
    return _error_at(text, start, message, kind) if bad is None else _lex_error(text, start)


def _tokens(text: str) -> list[str]:
    """The token texts of text from one findall, ending with the EOF token
    "" (twice after trailing whitespace or a comment). A text that ends in
    a lex error raises its first one. A token that _kind names None, such
    as "²x:o", is refused by _located when the parser fails on it."""
    tokens = _LEX.findall(text)
    if _ends_in_error(tokens):
        raise _located(text, tokens, len(tokens) - 2, "", ErrorKind.UNEXPECTED_TOKEN)
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    """Recursive descent over the token texts. A token is passed around by
    its index into self.tokens, and its kind is told from its text.
    self.i indexes the next token; taking the EOF token "" always ends in a
    ParseError, so self.i never runs past it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokens(text)
        self.i = 0
        self.triples: list[Triple] = []
        self.prefixes: PrefixMap = {}
        self.base: Optional[Iri] = None
        # CURIE and <IRI> token text -> Iri, under the current prefixes and base
        self._terms: dict[str, Iri] = {}
        # the cached tokens that a prefix (or "<", the base) resolved
        self._resolved_by: dict[str, list[str]] = {}
        self._anon = 0
        self._depth = 0
        # the explicit "_:" labels, which "[ ]" labels avoid; read at the first "["
        self._explicit: Optional[set[str]] = None

    def _err(self, i: int, message: str, kind: ErrorKind):
        raise _located(self.text, self.tokens, i, message, kind)

    def parse(self) -> ParseResult:
        tokens = self.tokens
        while token := tokens[self.i]:
            if token == "@prefix" or token == "@base":
                self._directive()
                continue
            if token == "[":
                subject = self._anon_node()
            else:
                subject = self._terms.get(token) or self._node(self.i, "subject expected")
                self.i += 1
            self._predicate_object_list(subject)
            dot = self._take()
            if tokens[dot] != ".":
                self._err(dot, "'.' expected at end of statement",
                          ErrorKind.UNTERMINATED_STATEMENT)
        del self.tokens  # spent: free them before the graph
        return ParseResult(Graph(self.triples).freeze(), dict(self.prefixes), self.base)

    def _take(self) -> int:
        self.i += 1
        return self.i - 1

    def _directive(self):
        tokens = self.tokens
        if tokens[self._take()] == "@prefix":
            name = self._take()
            label = tokens[name]
            if not (_kind(label) == "PNAME" and label.endswith(":")):
                self._err(name, "prefix label expected after @prefix",
                          ErrorKind.UNEXPECTED_TOKEN)
            iriref = self._take()
            if _kind(tokens[iriref]) != "IRIREF":
                self._err(iriref, "namespace IRI expected", ErrorKind.UNEXPECTED_TOKEN)
            prefix, ns = label[:-1], tokens[iriref][1:-1]
            # a new namespace: forget the CURIEs resolved under the old one
            scope = prefix if self.prefixes.get(prefix) != ns else None
            self.prefixes[prefix] = ns
        else:
            iriref = self._take()
            if _kind(tokens[iriref]) != "IRIREF":
                self._err(iriref, "base IRI expected", ErrorKind.UNEXPECTED_TOKEN)
            self.base = self._node(iriref, "base IRI expected", blank=False)
            scope = "<"  # forget the relative IRIs resolved against the old base
        for token in self._resolved_by.pop(scope, ()):
            self._terms.pop(token, None)  # a base token can be listed twice
        dot = self._take()
        if tokens[dot] != ".":
            self._err(dot, "'.' expected after directive", ErrorKind.UNTERMINATED_STATEMENT)

    def _predicate_object_list(self, subject):
        """Every triple of subject's predicate-object list, read with a local
        index i, which self.i holds around calls that take tokens themselves."""
        tokens, terms, append = self.tokens, self._terms, self.triples.append
        i = self.i
        while True:
            token = tokens[i]
            pred = terms.get(token) or (RDF_TYPE if token == "a" else
                                        self._node(i, "predicate expected", blank=False))
            i += 1
            while True:
                token = tokens[i]
                if token == "[":
                    self.i = i
                    obj = self._anon_node()
                    i = self.i
                elif token[:1] == '"':
                    self.i = i + 1
                    obj = self._literal(token[1:-1])
                    i = self.i
                else:
                    obj = terms.get(token) or self._node(i, "object expected")
                    i += 1
                append(_triple(subject, pred, obj))
                token = tokens[i]
                if token != ",":
                    break
                i += 1
            if token == ";":
                i += 1
                # tolerate trailing ';' before '.' or ']'
                if tokens[i] not in (".", "]"):
                    continue
            self.i = i
            return

    def _node(self, i: int, expected: str, blank=True, error=ErrorKind.UNEXPECTED_TOKEN):
        """The IRI, or if blank is true the blank node, that token i names.
        An IRI is cached in self._terms by its token text. A token that
        names none raises the error, saying what was expected."""
        token = self.tokens[i]
        kind = _kind(token)
        scope = None  # the prefix, or "<" for the base, that the IRI depends on
        if kind == "PNAME":
            scope, _, local = token.partition(":")
            ns = self.prefixes.get(scope)
            if ns is None:
                self._err(i, f"undeclared prefix {scope!r}", ErrorKind.UNDECLARED_PREFIX)
            value = ns + local  # a relative namespace gives no IRI
        elif kind == "IRIREF":
            value = token[1:-1]
            if ":" not in value:
                if self.base is None:
                    self._err(i, f"relative IRI {value!r} with no base", ErrorKind.BAD_IRI)
                scope, value = "<", self.base + value
        elif kind == "BLANK" and blank:
            return BlankNode(token[2:])
        else:
            self._err(i, expected, error)
        try:
            self._terms[token] = iri = Iri(value)
        except ValueError:
            self._err(i, f"bad IRI {value!r}", ErrorKind.BAD_IRI)
        if scope is not None:
            self._resolved_by.setdefault(scope, []).append(token)
        return iri

    def _literal(self, lexical: str) -> Literal:
        if "\\" in lexical:
            lexical = _ESCAPE.sub(lambda e: _UNESCAPE[e[1]], lexical)
        i = self.i
        kind = _kind(self.tokens[i])
        if kind == "LANG":
            self.i += 1
            tag = self.tokens[i][1:]
            # Literal lower-cases the tag, and the serializer writes that form
            if not _lexes_as("LANG", "@" + tag.lower()):
                self._err(i, f"language tag {tag!r} is not a tag once lower-cased",
                          ErrorKind.BAD_LITERAL)
            return Literal(lexical, lang=tag)
        if kind == "DTSEP":
            self.i += 1
            dt = self._take()
            return Literal(lexical, datatype=self._terms.get(self.tokens[dt]) or self._node(
                dt, "datatype IRI expected", blank=False, error=ErrorKind.BAD_LITERAL))
        return Literal(lexical)

    def _anon_node(self) -> BlankNode:
        opener = self._take()  # '['
        if self._depth == _MAX_NESTING:
            self._err(opener, f"'[' nested deeper than {_MAX_NESTING}",
                      ErrorKind.UNEXPECTED_TOKEN)
        if self._explicit is None:
            self._explicit = {t[2:] for t in self.tokens if t.startswith("_:")}
        self._anon += 1
        while f"b{self._anon}" in self._explicit:
            self._anon += 1
        node = BlankNode(f"b{self._anon}")
        if self.tokens[self.i] != "]":
            self._depth += 1
            self._predicate_object_list(node)
            self._depth -= 1
        closer = self._take()
        if self.tokens[closer] != "]":
            self._err(closer, "']' expected", ErrorKind.UNTERMINATED_STATEMENT)
        return node


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


def _render_literal(t: Literal, by_ns: list[tuple[str, str]]) -> str | GraphError:
    """The literal's text, or the GraphError naming what makes it unreadable."""
    body = f'"{_escape(t.lexical)}"'
    if t.lang:
        return body + f"@{t.lang}" if _lexes_as("LANG", f"@{t.lang}") else _unreadable(repr(t))
    if t.datatype and t.datatype != XSD_STRING:
        dt = _contract(t.datatype, by_ns) or f"<{t.datatype}>"
        return f"{body}^^{dt}" if _lexes_as(_kind(dt), dt) else _unreadable(repr(t.datatype))
    return body


def serialize_turtle(graph: Iterable[Triple], prefixes: PrefixMap) -> str:
    """Deterministic Turtle: prefixes sorted by label, subjects sorted by
    term order, predicates and objects sorted within each subject block.

    parse_turtle reads the output back to an isomorphic graph. A term or
    prefix it could not read back raises GraphError naming it (the first
    such term in output order, a subject after the rest of its block).
    """
    for label, ns in prefixes.items():
        if not (_lexes_as("PNAME", f"{label}:") and _lexes_as("IRIREF", f"<{ns}>")):
            raise _unreadable(f"prefix {label}: <{ns}>")
    by_ns = sorted(((ns, label) for label, ns in prefixes.items()),
                   key=lambda x: (-len(x[0]), x[1]))
    namespaces = tuple(prefixes.values())  # only an IRI they start has a CURIE
    if iter(graph) is graph:  # a one-shot iterator: graph is read twice
        graph = list(graph)
    terms = sorted(set(chain.from_iterable(graph)), key=term_key)
    # each distinct term's text, or the GraphError naming it, by rank; raw
    # holds the ranks of the <IRI> and _:label texts, lex-checked below
    texts, raw = [], []
    for t in terms:
        if isinstance(t, Literal):
            text = _render_literal(t, by_ns)
        elif not (text := isinstance(t, Iri) and t.startswith(namespaces)
                  and _contract(t, by_ns)):
            raw.append(len(texts))
            text = f"<{t}>" if isinstance(t, Iri) else f"_:{t.label}"
        texts.append(text)
    # each text lexes alone as itself if and only if their space-joined
    # texts lex as them all: no token of these kinds runs past a space
    batch = [texts[i] for i in raw]
    if _LEX.findall(" ".join(batch) + " ") != batch + ["", ""]:
        for i in raw:
            if not _lexes_as(_kind(texts[i]), texts[i]):
                texts[i] = _unreadable(repr(terms[i]))
    n = len(terms)
    nn = n * n
    rank = {t: i for i, t in enumerate(terms)}
    # a triple's key orders it by its subject's, predicate's and object's ranks
    keys = sorted((rank[s] * n + rank[p]) * n + rank[o] for s, p, o in graph)
    a = rank.get(RDF_TYPE)  # rdf:type is written "a" as a predicate only
    # pieces joined once: blank lines between blocks, each ending " .\n"
    out = [f"@prefix {label}: <{ns}> .\n" for label, ns in sorted(prefixes.items())]
    gap, subject, predicate = "\n" if out else "", None, None
    for key in keys:
        s, rest = divmod(key, nn)
        p, o = divmod(rest, n)
        if s != subject:
            out += (gap, texts[s], " ", "a" if p == a else texts[p], " ", texts[o])
            gap = " .\n\n"
        elif p != predicate:
            out += (" ;\n    ", "a" if p == a else texts[p], " ", texts[o])
        else:
            out += (", ", texts[o])
        subject, predicate = s, p
    out.append(" .\n" if keys else "")
    try:
        return "".join(out)
    except TypeError:  # a piece is a GraphError: raise the first one met, where
        # a subject is met after the predicates and objects of its block
        for s, block in groupby(keys, lambda key: key // nn):
            for i in [*chain.from_iterable(divmod(key % nn, n) for key in block), s]:
                if isinstance(texts[i], GraphError):
                    raise texts[i] from None
