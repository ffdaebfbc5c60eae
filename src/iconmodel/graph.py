"""RDF-style terms, triples, and an indexed in-memory graph.

Terms and triples are built-in values, so hashing, equality and field
access run in C: an Iri is a str subclass that is its own text, and a
Literal (lexical, datatype, lang) and a Triple (subject, predicate,
object) are tuples with named fields. Each hashes as its text or its
tuple of fields, and never carries one process's string hash seed into
another. Equality widens in one way: an Iri equals the plain str of its
text, and a Triple or Literal the plain tuple of its fields. A blank
node is a named tuple that hashes as its label but equals only a blank
node, so no term equals one of another kind. A parse builds one Iri
per distinct token text under the current prefixes and base, so one
IRI written two ways gives two equal Iri objects.

Graphs are append-only while being built and are frozen before they
are handed out. A graph builds its subject, predicate and object
indexes on the first read that needs one, or on its first insert, so a
graph that is only iterated and probed for membership (a parsed graph
handed to the reasoner) never builds them. A union shares its larger
frozen input's untouched index buckets and never mutates them. The
reasoner's engine derives into the store it returns, joining against
that graph's indexes as it inserts, and a closure hands out that same
frozen graph on every call. Triple(...) checks each term's kind;
_triple() does not, and is only for library code whose terms are of
the right kinds by construction (the parser, the reasoner's rule
bodies, the validator's class probes).

A frozen graph can be shared freely between threads. Nothing mutates
its triple set, and its indexes are built into locals and published by
one attribute assignment: two threads making their first read each
build equal indexes from the same triples, and neither sees a partial
one.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from typing import Iterable, Iterator, Optional, Union

PrefixMap = dict[str, str]

_new_tuple = tuple.__new__


class GraphError(Exception):
    pass


class FrozenGraphError(GraphError):
    """Raised on any attempt to mutate a frozen graph."""


class Iri(str):
    """An absolute IRI: the str of its own text, which must hold a ':'."""
    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not value or ":" not in value:
            raise ValueError(f"not an absolute IRI: {value!r}")
        return str.__new__(cls, value)

    value = property(str.__str__, doc="The IRI as a plain str.")

    def __repr__(self):
        return f"<{self}>"


XSD_STRING = Iri("http://www.w3.org/2001/XMLSchema#string")


class _ExactTuple(tuple):
    """Base of the blank node and the query's variable and path nodes: a
    value equals only a value of its own class with equal fields, so
    BlankNode("x") != Var("x") and none equals a plain tuple."""
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.__class__.__name__, *self))


class BlankNode(_ExactTuple, namedtuple("_BlankNode", "label")):
    """A blank node: hashes as its label and equals only a blank node
    with the same label."""
    __slots__ = ()

    def __new__(cls, label: str) -> "BlankNode":
        if not label:
            raise ValueError("blank node label must be non-empty")
        return _new_tuple(cls, (label,))

    def __hash__(self):
        return hash(self[0])

    def __repr__(self):
        return f"_:{self.label}"


class Literal(namedtuple("_Literal", "lexical datatype lang")):
    """A literal: a language tag (lower-cased) or a datatype, which is
    xsd:string when neither is given."""
    __slots__ = ()

    def __new__(cls, lexical: str, datatype: Optional[Iri] = None,
                lang: Optional[str] = None) -> "Literal":
        if lang is not None:
            if datatype is not None:
                raise ValueError("literal cannot carry both a language tag and a datatype")
            if lang == "":
                raise ValueError("language tag must be non-empty")
            lang = lang.lower()
        elif datatype is None:
            datatype = XSD_STRING
        return _new_tuple(cls, (lexical, datatype, lang))

    def __repr__(self):
        if self.lang:
            return f'"{self.lexical}"@{self.lang}'
        if self.datatype and self.datatype != XSD_STRING:
            return f'"{self.lexical}"^^{self.datatype!r}'
        return f'"{self.lexical}"'


RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

Term = Union[Iri, BlankNode, Literal]

# Total order over terms: IRIs < blank nodes < literals, each by canonical string.
def term_key(t: Term) -> tuple:
    if isinstance(t, Iri):
        return (0, t)
    if isinstance(t, BlankNode):
        return (1, t.label)
    return (2, t.lexical, t.lang or "", t.datatype or "")


def term_str(t: Term) -> str:
    """A term as plain text: IRI, _:label, or literal lexical form."""
    if isinstance(t, Iri):
        return t
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    return t.lexical


class Triple(namedtuple("_Triple", "subject predicate object")):
    __slots__ = ()

    def __new__(cls, subject: Union[Iri, BlankNode], predicate: Iri,
                object: Term) -> "Triple":
        if not isinstance(subject, (Iri, BlankNode)):
            raise ValueError(f"bad triple subject: {subject!r}")
        if not isinstance(predicate, Iri):
            raise ValueError(f"bad triple predicate: {predicate!r}")
        if not isinstance(object, (Iri, BlankNode, Literal)):
            raise ValueError(f"bad triple object: {object!r}")
        return _new_tuple(cls, (subject, predicate, object))

    def __repr__(self):
        return f"({self.subject!r} {self.predicate!r} {self.object!r})"


def _triple(subject: Union[Iri, BlankNode], predicate: Iri, object: Term) -> Triple:
    return _new_tuple(Triple, (subject, predicate, object))  # unchecked: see above


def triple_key(t: Triple) -> tuple:
    return (term_key(t.subject), term_key(t.predicate), term_key(t.object))


# a graph's triples by subject, by predicate and by object
_Indexes = tuple[dict[Term, set[Triple]], dict[Iri, set[Triple]], dict[Term, set[Triple]]]


class Graph:
    """Triple set with subject/predicate/object indexes, built on first read.

    Build with insert(), then freeze(). Lookups see every triple
    inserted so far, so code filling a graph can join against it.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: set[Triple] = set(triples)
        self._index: Optional[_Indexes] = None  # until the first read
        self._frozen = False

    def _indexes(self) -> _Indexes:
        """The three indexes, built in one pass over the triples the first
        time and published whole by one assignment (see the module
        docstring). Readers write `self._index or self._indexes()`, which
        skips the call once the indexes exist."""
        index = self._index
        if index is None:
            by_s: dict[Term, set[Triple]] = {}
            by_p: dict[Iri, set[Triple]] = {}
            by_o: dict[Term, set[Triple]] = {}
            for t in self._triples:
                (by_s.get(t.subject) or by_s.setdefault(t.subject, set())).add(t)
                (by_p.get(t.predicate) or by_p.setdefault(t.predicate, set())).add(t)
                (by_o.get(t.object) or by_o.setdefault(t.object, set())).add(t)
            index = self._index = (by_s, by_p, by_o)
        return index

    def _writable(self) -> tuple:
        """The triple set and the three indexes, for insert() and for the
        reasoner's engine, the one writer of the store it derives into."""
        if self._frozen:
            raise FrozenGraphError("cannot insert into a frozen graph")
        return (self._triples, *(self._index or self._indexes()))

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "Graph":
        self._frozen = True
        return self

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns True iff it was not already present."""
        triples, by_s, by_p, by_o = self._writable()
        if t in triples:
            return False
        triples.add(t)
        # buckets are never empty, so only a new key builds a set
        (by_s.get(t.subject) or by_s.setdefault(t.subject, set())).add(t)
        (by_p.get(t.predicate) or by_p.setdefault(t.predicate, set())).add(t)
        (by_o.get(t.object) or by_o.setdefault(t.object, set())).add(t)
        return True

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def match(self, s: Optional[Term] = None, p: Optional[Iri] = None,
              o: Optional[Term] = None) -> set[Triple]:
        """All triples agreeing with every bound position."""
        if s is None and p is None and o is None:
            return set(self._triples)
        by_s, by_p, by_o = self._index or self._indexes()
        candidates = None
        if s is not None:
            candidates = by_s.get(s, set())
        if p is not None:
            bucket = by_p.get(p, set())
            candidates = bucket if candidates is None else candidates & bucket
        if o is not None:
            bucket = by_o.get(o, set())
            candidates = bucket if candidates is None else candidates & bucket
        return set(candidates)

    def neighbours(self, node: Term, p: Iri, forward: bool = True) -> set[Term]:
        """{o | (node p o)} when forward, else {s | (s p node)}, from node's bucket."""
        by_s, _, by_o = self._index or self._indexes()
        if forward:
            return {t.object for t in by_s.get(node, ()) if t.predicate == p}
        return {t.subject for t in by_o.get(node, ()) if t.predicate == p}

    def terms(self) -> set[Term]:
        return set(chain.from_iterable(self._triples))

    def has_term(self, x: Term) -> bool:
        """True iff x occurs as a subject, predicate or object; a literal's
        datatype IRI does not count, as in terms()."""
        by_s, by_p, by_o = self._index or self._indexes()
        return x in by_s or x in by_p or x in by_o

    def has_subject(self, x: Term) -> bool:
        return x in (self._index or self._indexes())[0]

    def has_predicate(self, p: Iri) -> bool:
        return p in (self._index or self._indexes())[1]

    def blank_labels(self) -> set[str]:
        by_s, _, by_o = self._index or self._indexes()
        # blank nodes never occur as predicates
        return {x.label for keys in (by_s, by_o) for x in keys
                if isinstance(x, BlankNode)}


def union(a: Graph, b: Graph) -> Graph:
    """Set union of two frozen graphs, returned frozen.

    Both inputs must be frozen; GraphError names an argument that is
    not. The result's triple set is a C-level copy of the larger input's
    plus the smaller input's new triples. If the larger input has built
    its indexes, the result starts from C-level copies of its index
    dicts, so it shares that input's index buckets: each index key that
    gains a triple from the smaller input gets a new bucket, and no
    bucket is ever mutated. Python code then runs only for the smaller
    input's triples. Otherwise there is nothing to share, and the result
    builds its own indexes on its first read, like any other graph.

    Blank node labels are merged as-is: callers must keep labels
    disjoint unless identification across the inputs is intended.
    """
    for name, x in (("first", a), ("second", b)):
        if not x.frozen:
            raise GraphError(f"union() requires frozen graphs; the {name} "
                             "argument is not frozen")
    if len(a) < len(b):
        a, b = b, a
    new = b._triples - a._triples
    g = Graph()
    g._triples = a._triples | new
    if a._index is not None:
        g._index = tuple(map(dict, a._index))
        for index, position in zip(g._index, ("subject", "predicate", "object")):
            fresh: dict[Term, set[Triple]] = {}
            for t in new:
                key = getattr(t, position)
                if key not in fresh:
                    fresh[key] = set(index.get(key, ()))
                fresh[key].add(t)
            index.update(fresh)
    return g.freeze()


def _blank_triples(g: Graph) -> set[Triple]:
    """The triples with a blank subject or object, selected from the
    triple set, so that a graph with no indexes builds none for this."""
    return {t for t in g._triples
            if type(t.subject) is BlankNode or type(t.object) is BlankNode}


def isomorphic(a: Graph, b: Graph) -> bool:
    """True iff some blank-node bijection maps a exactly onto b.

    Colour refinement with individualisation (McKay & Piperno, "Practical
    Graph Isomorphism, II", J. Symbolic Computation 2014; for RDF, Hogan,
    "Canonical Forms for Isomorphic and Equivalent RDF Graphs", ACM TWEB
    2017). The blank nodes of both graphs share one colouring, which
    starts as one colour. A colour splits by the rows of its nodes'
    triples: direction, predicate, and the far end's colour or ground
    term. After a split only the neighbours of recoloured nodes are
    examined again; a colour's unexamined nodes keep it, and when all of
    them were examined, so does its largest part. A colour held by
    different numbers of nodes in a and b rules the colouring out. Once
    every colour holds one node of each graph, the colouring is a
    bijection, and it is checked against the triples. Otherwise one node
    of a in the smallest colour is paired in turn with each node of b in
    that colour, the pair gets a colour of its own, and refinement runs
    again, depth first on an explicit stack.

    On blank chains and trees, refinement leaves only colours whose nodes
    are interchangeable, so the first pairing tried always extends to a
    bijection when one exists. On a cycle, one pairing splits every
    colour, up to a mirror image. All three take polynomial time. A
    2n-cycle against two n-cycles costs one refinement per candidate
    pairing, which is quadratic (n = 500 took 3.6-5.5 s on 2 cores with
    CPython 3.11.7). Graphs that refinement cannot split, such as the CFI
    constructions of Cai, Fürer and Immerman, stay exponential.
    """
    blank_a, blank_b = _blank_triples(a), _blank_triples(b)
    # compares the ground triples; a set difference reuses stored hashes
    if len(a) != len(b) or a._triples - blank_a != b._triples - blank_b:
        return False
    # Blank nodes are numbered 0, 1, ..., a's before b's, and ground terms
    # -1, -2, ..., one number per term in both graphs, so that rows sort
    # as ints and no ground term can pass for a node.
    ids: dict[tuple[int, BlankNode], int] = {}
    ground: dict[Term, int] = {}

    def number(side: int, x: Term) -> int:
        if isinstance(x, BlankNode):
            return ids.setdefault((side, x), len(ids))
        return ground.setdefault(x, -1 - len(ground))

    triples_a = [(number(0, s), p, number(0, o)) for s, p, o in blank_a]
    na = len(ids)
    triples_b = [(number(1, s), p, number(1, o)) for s, p, o in blank_b]
    n = len(ids)
    if 2 * na != n:
        return False
    rows: list[list[tuple[int, Iri, int]]] = [[] for _ in range(n)]
    for s, p, o in triples_a + triples_b:
        if s >= 0:
            rows[s].append((0, p, o))
        if o >= 0:
            rows[o].append((1, p, s))

    def refine(colour: list[int], size: list[int], dirty: set[int]) -> bool:
        """Split colours in place until none splits. False as soon as a
        recoloured part holds unequal numbers of a's and b's nodes."""
        while dirty:
            examined: dict[int, list[int]] = {}
            for x in dirty:
                examined.setdefault(colour[x], []).append(x)
            dirty = set()
            for c, members in examined.items():
                # every row is read before any node of c is recoloured
                parts: dict[tuple, list[int]] = {}
                for x in members:
                    key = tuple(sorted([(d, p, colour[f]) for d, p, f in rows[x]]))
                    parts.setdefault(key, []).append(x)
                moved = list(parts.values())
                if len(members) == size[c]:  # c's largest part keeps c
                    moved.remove(max(moved, key=len))
                for part in moved:
                    if 2 * sum(x < na for x in part) != len(part):
                        return False
                    size[c] -= len(part)
                    for x in part:
                        colour[x] = len(size)
                        dirty.update(f for _, _, f in rows[x] if f >= 0)
                    size.append(len(part))
        return True

    # Each entry holds a colouring, its colour sizes, and the pair to give
    # a colour of its own (none at the start), which copies both lists. A
    # colouring ends in the ground numbers, so colour[-k] reads -k.
    stack = [([0] * n + list(range(-len(ground), 0)), [n], ())]
    while stack:
        colour, size, pair = stack.pop()
        if pair:
            colour, size = colour[:], size[:]
            size[colour[pair[0]]] -= 2
            for x in pair:
                colour[x] = len(size)
            size.append(2)
        if not refine(colour, size, {f for x in pair for _, _, f in rows[x] if f >= 0}
                      if pair else set(range(n))):
            continue
        if len(size) - size.count(0) == na:  # one node of each graph per colour
            if ({(colour[s], p, colour[o]) for s, p, o in triples_a}
                    == {(colour[s], p, colour[o]) for s, p, o in triples_b}):
                return True
            continue
        _, c = min((k, c) for c, k in enumerate(size) if k > 2)
        x = colour.index(c)  # a's nodes are numbered first
        stack.extend((colour, size, (x, y)) for y in range(na, n) if colour[y] == c)
    return False
